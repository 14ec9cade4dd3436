"""Command-line front end.

    lagfwi forward   --config experiment.cfg
    lagfwi invert    --config experiment.cfg [--scheme NAME]
    lagfwi selfcheck [--inject-fault NAME]

forward writes one trace file per source (trace_000.dat, trace_001.dat, ...)
into paths.work_dir.  invert reads those traces back, runs the configured
scheme, and writes model_final.dat plus convergence.csv (log header records
the scheme and, when noise is configured, the seed).  selfcheck runs the
identity battery and prints one PASS/FAIL line per named check.

Exit status: 0 success, 1 runtime failure (divergence, a solve that did not
converge, a factorization that failed, failed checks), 2 usage error (bad
flags, malformed config, unknown scheme).  An invert run that ends
"diverged", "solver_not_converged" or "singular_system" still writes the
last good model and the history up to it.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import parse_config_file, true_model_grid, build_acquisition
from .errors import ConfigurationError, DivergenceError, FileFormatError, LagfwiError
from . import config as config_mod
from . import fileio, iterations, selfcheck

TRACE_TEMPLATE = "trace_%03d.dat"
MODEL_FILE = "model_final.dat"
LOG_FILE = "convergence.csv"


def cmd_forward(config) -> list[str]:
    """Model the observed data and write one trace file per source."""
    data = config_mod.make_observed_data(config)
    os.makedirs(config.work_dir, exist_ok=True)
    paths = []
    for index, traces in enumerate(data):
        path = os.path.join(config.work_dir, TRACE_TEMPLATE % index)
        fileio.save_traces(path, traces)
        paths.append(path)
    return paths


def cmd_invert(config, scheme: str | None = None):
    """Invert previously written traces; returns (result, model path, log path)."""
    if scheme is not None:
        config = replace(config, scheme=scheme)
    if config.scheme not in iterations.SCHEMES:
        raise ConfigurationError(
            f"unknown scheme {config.scheme!r}; expected one of {', '.join(iterations.SCHEMES)}"
        )
    geometry = build_acquisition(config)
    data = []
    for index in range(len(config.source_nodes)):
        path = os.path.join(config.work_dir, TRACE_TEMPLATE % index)
        data.append(fileio.load_traces(path, config.grid, geometry))
    result = iterations.run_inversion(config, data, true_model=true_model_grid(config))
    model_path = os.path.join(config.work_dir, MODEL_FILE)
    log_path = os.path.join(config.work_dir, LOG_FILE)
    fileio.save_model(model_path, result.model)
    fileio.write_log(
        log_path, result.history,
        seed=config.noise.seed if config.noise.std > 0 else None,
        scheme=config.scheme,
    )
    return result, model_path, log_path


def cmd_selfcheck(faults=frozenset(), stream=None) -> bool:
    """Run the identity battery; returns True when every check passed."""
    stream = stream if stream is not None else sys.stdout
    results = selfcheck.run_battery(faults)
    stream.write(selfcheck.format_report(results))
    return all(r.passed for r in results)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagfwi",
        description="Desk-scale waveform-inversion workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_forward = sub.add_parser("forward", help="model observed traces from the true model")
    p_forward.add_argument("--config", required=True, help="experiment config file")
    p_invert = sub.add_parser("invert", help="run the configured inversion scheme")
    p_invert.add_argument("--config", required=True, help="experiment config file")
    p_invert.add_argument("--scheme", default=None, help="override the configured scheme")
    p_check = sub.add_parser("selfcheck", help="run the built-in identity battery")
    p_check.add_argument(
        "--inject-fault",
        default=None,
        choices=selfcheck.KNOWN_FAULTS,
        help="deliberately break an internal computation (battery must catch it)",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "forward":
            config = parse_config_file(args.config)
            paths = cmd_forward(config)
            print(f"wrote {len(paths)} trace files to {config.work_dir}")
            return 0
        if args.command == "invert":
            config = parse_config_file(args.config)
            result, model_path, log_path = cmd_invert(config, scheme=args.scheme)
            last = result.history[-1]
            print(
                f"{result.status} after {last.iteration} iterations; "
                f"misfit {last.misfit:.6e}; wrote {model_path} and {log_path}"
            )
            failed = ("diverged", "solver_not_converged", "singular_system")
            return 1 if result.status in failed else 0
        if args.command == "selfcheck":
            faults = frozenset() if args.inject_fault is None else frozenset({args.inject_fault})
            return 0 if cmd_selfcheck(faults) else 1
        parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    except (ConfigurationError, FileFormatError) as exc:
        print(f"lagfwi: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"lagfwi: diverged: {exc}", file=sys.stderr)
        return 1
    except LagfwiError as exc:
        print(f"lagfwi: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
