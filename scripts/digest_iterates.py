#!/usr/bin/env python3
"""Print a digest of every scheme's first iteration states, for bit-for-bit checks.

    PYTHONPATH=src python3 scripts/digest_iterates.py > digest.txt

For each of the 13 schemes in both update modes, on the pinned inputs of
``tests/test_pinned_iterates.py``, it steps N_STEPS = 3 iterations and
prints one line per state: scheme, update mode, step, then the sha1 of
every ``IterationState`` slot in field order (``-`` for an unwritten slot).
A per-source slot hashes the bytes of its fields in source order.  That is
78 lines.  Two checkouts compute the same iterates bit for bit exactly
when they print the same lines, so a refactor that claims unchanged
iterates is checked by diffing this output on both.

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
from dataclasses import fields

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from lagfwi.config import UPDATE_MODES
from lagfwi.iterations import SCHEMES, IterationState

from test_pinned_iterates import case_states


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


def main() -> None:
    slots = [f.name for f in fields(IterationState)]
    for scheme in SCHEMES:
        for mode in UPDATE_MODES:
            for step, state in enumerate(case_states(scheme, mode), start=1):
                digests = " ".join(slot_digest(getattr(state, name)) for name in slots)
                print(f"{scheme} {mode} {step} {digests}")


if __name__ == "__main__":
    main()
