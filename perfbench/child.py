"""Run lagfwi CLI commands in this fresh process and record what each cost.

    python3 perfbench/child.py TASK.json

TASK.json holds {"src": directory holding the lagfwi package,
"commands": [argv, ...], "result": output path, "spans": output path or
null}.  Each command goes through `lagfwi.cli.main(argv)` with its standard
output captured; an exception or SystemExit is recorded, never raised.  With
"spans" set, the package is traced (see layertrace.py) and the spans are
written there once all commands have run.  The parent reads the process's
peak memory from wait4, so nothing here measures it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_command(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    error = None
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        error = traceback.format_exc()
    wall1, cpu1 = time.perf_counter(), _cpu_s()
    return {
        "argv": argv,
        "exit": code,
        "error": error,
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "stdout": out.getvalue(),
    }


def main(task_path: str) -> int:
    with open(task_path) as handle:
        task = json.load(handle)
    src = os.path.abspath(task["src"])
    start = time.perf_counter()
    sys.path.insert(0, src)
    import lagfwi
    from lagfwi import cli

    import_s = time.perf_counter() - start
    if not os.path.abspath(lagfwi.__file__).startswith(src + os.sep):
        print(f"lagfwi imported from {lagfwi.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if task["spans"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    commands = [run_command(cli, argv) for argv in task["commands"]]
    if tracer is not None:
        tracer.dump(task["spans"])
    with open(task["result"], "w") as handle:
        json.dump({"import_s": import_s, "commands": commands}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
