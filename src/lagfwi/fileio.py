"""Plain-text file formats: models, fields, traces, and logs.

Every array file starts with one header line

    LAGFWI <kind> <ndim> <nx> <nz> <nt> <dx> <dz> <dt>

with kind in {model, field, trace}, followed by whitespace-delimited
decimal values that round-trip 64-bit floats (printed with %.17g).  Values
are laid out space-fastest / time-slowest: one line per time level, each line
holding all spatial nodes (z-major in 2D).  Specifics per kind:

    model   one line of n_space squared-slowness values; header carries the
            full grid including nt so a model stays tied to its grid.
    field   nt lines of n_space values (wavefields and source fields alike).
    trace   nx is the receiver count, nz is 1; nt lines of nx values.
            Receiver node ids are not stored - they come from the experiment
            configuration.

Convergence logs are comma-separated with header
"iter,misfit,constraint,model_error,v_norm,w_norm,seconds", preceded by
'#'-comment lines recording metadata (noise seed, scheme).  All writers are
atomic (write to a temp file in the target directory, then rename).
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import astuple, dataclass

import numpy as np

from .errors import ConfigurationError, FileFormatError
from .grids import AcquisitionGeometry, GridSpec, ModelGrid, TraceData, Wavefield

FILE_KINDS = ("model", "field", "trace")
LOG_HEADER = "iter,misfit,constraint,model_error,v_norm,w_norm,seconds"
DIAGNOSTIC_FIELDS = tuple(LOG_HEADER.split(","))  # names of as_row() entries: the log columns
_LOG_ROW = ",".join(["%d"] + ["%.17g"] * (len(DIAGNOSTIC_FIELDS) - 1))


@dataclass(frozen=True)
class Diagnostics:
    """One row of the convergence log.

    model_error is relative (||m - m_true|| / ||m_true||), NaN when no true
    model is available.  seconds is the wall time of the step and its
    forward sweep at the new model (row 0: initial_state), not of this
    row's diagnostics, which run between the two; it is excluded from any
    determinism or regression comparison.  constraint, v_norm and w_norm
    are sums of squares streamed through row-sized pieces of each field, never whole
    temporaries; their pieces add up in another order than one whole-array
    sum, so they may differ from it at round-off.
    """

    iteration: int
    misfit: float
    constraint: float
    model_error: float
    v_norm: float
    w_norm: float
    seconds: float

    def as_row(self) -> tuple:
        return astuple(self)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".lagfwi-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _write_lines(path: str, header: str, rows: np.ndarray) -> None:
    """Write header, then one line per row of rows, each value %.17g: one %
    over all of them, byte for byte the per-value "%.17g" % v."""
    line = " ".join(["%.17g"] * rows.shape[1])
    body = "\n".join([line] * rows.shape[0]) % tuple(rows.ravel().tolist())
    _atomic_write(path, header + "\n" + body + "\n")


def _header(kind: str, ndim: int, nx: int, nz: int, nt: int,
            dx: float, dz: float, dt: float) -> str:
    return "LAGFWI %s %d %d %d %d %.17g %.17g %.17g" % (
        kind, ndim, nx, nz, nt, dx, dz, dt
    )


def _parse_header(line: str, path: str):
    tokens = line.split()
    if len(tokens) != 9 or tokens[0] != "LAGFWI":
        raise FileFormatError(f"{path}: not a LAGFWI file (bad header {line!r})")
    kind = tokens[1]
    if kind not in FILE_KINDS:
        raise FileFormatError(f"{path}: unknown kind {kind!r}")
    try:
        ndim, nx, nz, nt = (int(t) for t in tokens[2:6])
        dx, dz, dt = (float(t) for t in tokens[6:9])
    except ValueError as exc:
        raise FileFormatError(f"{path}: malformed header numbers") from exc
    return kind, ndim, nx, nz, nt, dx, dz, dt


def _read(path: str, expected_kind: str):
    try:
        with open(path) as handle:
            header = handle.readline()
            body = handle.read()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    kind, *rest = _parse_header(header, path)
    if kind != expected_kind:
        raise FileFormatError(f"{path}: expected kind {expected_kind!r}, found {kind!r}")
    tokens = body.split()
    try:
        values = np.array(tokens, dtype=float) if tokens else np.array([])
    except ValueError as exc:
        raise FileFormatError(f"{path}: malformed values") from exc
    if not np.all(np.isfinite(values)):
        raise FileFormatError(f"{path}: non-finite values")
    return rest, values


def _read_grid(path: str, expected_kind: str):
    """_read, with the header's grid as a GridSpec: (spec, values)."""
    (ndim, nx, nz, nt, dx, dz, dt), values = _read(path, expected_kind)
    try:
        spec = GridSpec(ndim=ndim, nx=nx, nz=nz, dx=dx, dz=dz, nt=nt, dt=dt)
    except ConfigurationError as exc:
        raise FileFormatError(f"{path}: invalid grid in header: {exc}") from exc
    return spec, values


def _check_count(path: str, values: np.ndarray, expected: int) -> None:
    if values.size != expected:
        raise FileFormatError(
            f"{path}: expected {expected} values, found {values.size}"
        )


def save_model(path: str, m: ModelGrid) -> None:
    s = m.spec
    _write_lines(path, _header("model", s.ndim, s.nx, s.nz, s.nt, s.dx, s.dz, s.dt),
                 m.values.reshape(1, -1))


def load_model(path: str) -> ModelGrid:
    spec, values = _read_grid(path, "model")
    _check_count(path, values, spec.n_space)
    try:
        return ModelGrid(spec, values)
    except Exception as exc:
        raise FileFormatError(f"{path}: invalid model values: {exc}") from exc


def save_field(path: str, field: Wavefield) -> None:
    s = field.spec
    _write_lines(path, _header("field", s.ndim, s.nx, s.nz, s.nt, s.dx, s.dz, s.dt),
                 field.values.T)


def load_field(path: str) -> Wavefield:
    spec, values = _read_grid(path, "field")
    _check_count(path, values, spec.n_space * spec.nt)
    return Wavefield(spec, values.reshape(spec.nt, spec.n_space).T.copy())


def save_traces(path: str, traces: TraceData) -> None:
    s = traces.spec
    n_r = len(traces.geometry.receiver_nodes)
    _write_lines(path, _header("trace", s.ndim, n_r, 1, s.nt, s.dx, s.dz, s.dt),
                 traces.values.T)


def load_traces(path: str, spec: GridSpec, geometry: AcquisitionGeometry) -> TraceData:
    (ndim, nx, nz, nt, dx, dz, dt), values = _read(path, "trace")
    n_r = len(geometry.receiver_nodes)
    if nx != n_r:
        raise FileFormatError(
            f"{path}: {nx} trace channels but geometry has {n_r} receivers"
        )
    if (ndim, nt) != (spec.ndim, spec.nt) or not math.isclose(dt, spec.dt, rel_tol=1e-12):
        raise FileFormatError(f"{path}: trace grid disagrees with configured grid")
    _check_count(path, values, n_r * nt)
    return TraceData(spec, geometry, values.reshape(nt, n_r).T.copy())


# ---------------------------------------------------------------------------
# convergence logs
# ---------------------------------------------------------------------------


def write_log(path: str, history, seed: int | None = None,
              scheme: str | None = None) -> None:
    """Write a convergence log; history is a sequence of Diagnostics."""
    lines = []
    if scheme is not None:
        lines.append(f"# scheme={scheme}")
    if seed is not None:
        lines.append(f"# seed={seed}")
    lines.append(LOG_HEADER)
    for diag in history:
        lines.append(_LOG_ROW % diag.as_row())
    _atomic_write(path, "\n".join(lines) + "\n")


def read_log(path: str):
    """Parse a convergence log.

    Returns (rows, metadata): rows is a list of Diagnostics, metadata a dict
    of '#'-comment key=value entries (seed parsed back to int when present).
    """
    metadata: dict[str, str | int] = {}
    rows = []
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    body = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            entry = line[1:].strip()
            if "=" in entry:
                key, value = entry.split("=", 1)
                metadata[key.strip()] = value.strip()
            continue
        body.append(line)
    if not body or body[0] != LOG_HEADER:
        raise FileFormatError(f"{path}: missing log header {LOG_HEADER!r}")
    for line in body[1:]:
        parts = line.split(",")
        if len(parts) != len(DIAGNOSTIC_FIELDS):
            raise FileFormatError(f"{path}: malformed log row {line!r}")
        try:
            rows.append(Diagnostics(int(parts[0]), *map(float, parts[1:])))
        except ValueError as exc:
            raise FileFormatError(f"{path}: malformed log row {line!r}") from exc
    if "seed" in metadata:
        try:
            metadata["seed"] = int(metadata["seed"])
        except ValueError:
            pass
    return rows, metadata
