#!/usr/bin/env python3
"""Run the two-scatterer benchmark and print its convergence table.

The benchmark drives three sources through a 61-node line with a fast and a
slow box anomaly, then inverts the four recorded traces per source.  The
default scheme is the augmented-Lagrangian multiplier iteration the
regression log is frozen for; pass --scheme to try any other scheme on the
same data (e.g. penalty-multiplier to see the constraint stall that the
running multiplier removes).
"""

import argparse
import sys
from dataclasses import replace

from lagfwi.config import (
    build_sources,
    make_observed_data,
    true_model_grid,
    two_scatterer_benchmark,
)
from lagfwi.fileio import DIAGNOSTIC_FIELDS
from lagfwi.iterations import SCHEMES, run_inversion


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scheme", default=None, choices=SCHEMES)
    parser.add_argument("--max-iter", type=int, default=None)
    args = parser.parse_args(argv)

    config = two_scatterer_benchmark()
    if args.scheme is not None:
        config = replace(config, scheme=args.scheme)
    if args.max_iter is not None:
        config = replace(config, stop=replace(config.stop, max_iter=args.max_iter))

    data = make_observed_data(config)
    result = run_inversion(config, data, true_model=true_model_grid(config))

    print(f"scheme={config.scheme}  mu={config.penalty.mu:g}")
    print(",".join(DIAGNOSTIC_FIELDS))
    for row in result.history:
        print(",".join("%.6e" % x if isinstance(x, float) else str(x) for x in row.as_row()))

    # the run's own scale, that of stop.constraint_tol: sqrt(sum_s ||b_s||^2)
    source_scale = sum(float((b.values**2).sum()) for b in build_sources(config)) ** 0.5
    last = result.history[-1]
    print(f"status={result.status}")
    print(f"final relative constraint = {last.constraint / source_scale:.3e}")
    print(f"final relative model error = {last.model_error:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
