"""Call-site tracing of lagfwi's public functions, and the per-layer metrics
derived from the recorded spans.

Tracer.install() wraps every public function and every public method of a
public class in the traced modules, then rebinds each wrapped function under
every name a lagfwi module holds it by.  That matters because `iterations`
imports `forward_solve`, `solve_augmented_wavefield` and others by name:
patching only `wavecore.forward_solve` would miss those calls.

A span is (name, start, end, parent, attrs); spans stay in memory and are
written out once by dump().  Self time is a span's duration minus the
durations of its direct children (calls nest strictly, one thread).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types

PACKAGE = "lagfwi"
LAYERS = ("cli", "config", "fileio", "iterations", "saddle", "wavecore", "oracle", "selfcheck")


def _solve_attrs(result) -> dict:
    return {"points": int(result.values.size)}


def _hessian_attrs(result) -> dict:
    return {"columns": int(result.matrix.shape[1]), "bytes": int(result.matrix.nbytes)}


def _cg_attrs(result) -> dict:
    info = result[1]
    return {
        "converged": bool(info.converged),
        "iterations": int(info.iterations),
        "rel_residual": float(info.relative_residual),
    }


# span name -> function reading counts from the call's return value
_RESULT_ATTRS = {
    "wavecore.forward_solve": _solve_attrs,
    "wavecore.adjoint_solve": _solve_attrs,
    "saddle.assemble_data_space_hessian": _hessian_attrs,
    "saddle.solve_augmented_wavefield": _cg_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.factorizations = 0
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        attrs_of = _RESULT_ATTRS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span[4] = attrs_of(result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        replaced = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])
        self._count_factorizations(importlib.import_module(f"{PACKAGE}.saddle"))

    def _count_factorizations(self, saddle) -> None:
        """Count Cholesky factorizations at saddle's own call site."""
        linalg = saddle.scipy.linalg
        tracer = self

        class _Linalg:
            def __getattr__(self, attr):
                return getattr(linalg, attr)

            @staticmethod
            def cho_factor(*args, **kwargs):
                tracer.factorizations += 1
                return linalg.cho_factor(*args, **kwargs)

        saddle.scipy = types.SimpleNamespace(linalg=_Linalg())

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "factorizations": self.factorizations}, handle)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(trace: dict, run_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a dumped trace; run_s is the traced run's wall
    time measured outside the spans.  Returns name -> (value, unit)."""
    spans = trace["spans"]
    duration = [end - start for _, start, end, _, _ in spans]
    child_s = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_s[span[3]] += duration[i]
    self_s = [d - c for d, c in zip(duration, child_s)]

    def named(*names):
        return [i for i, span in enumerate(spans) if span[0] in names]

    def total_self(indices):
        return float(sum(self_s[i] for i in indices))

    def total_attr(indices, key):
        return sum(spans[i][4][key] for i in indices)

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (total_self([i for i, s in enumerate(spans) if _layer(s[0]) == layer]), "s")

    fwd, adj = named("wavecore.forward_solve"), named("wavecore.adjoint_solve")
    sweep_s = total_self(fwd + adj)
    points = total_attr(fwd + adj, "points")
    out["wavecore.forward_solve.calls"] = (len(fwd), "count")
    out["wavecore.forward_solve.self_s"] = (total_self(fwd), "s")
    out["wavecore.adjoint_solve.calls"] = (len(adj), "count")
    out["wavecore.adjoint_solve.self_s"] = (total_self(adj), "s")
    out["wavecore.sweep_points"] = (points, "count")
    out["wavecore.sweep_mpts_per_s"] = (points / sweep_s / 1e6 if sweep_s > 0 else 0.0, "Mpt/s")
    out["wavecore.apply_operator.self_s"] = (
        total_self(named("wavecore.apply_wave_operator", "wavecore.apply_wave_operator_transpose")), "s")

    hess = named("saddle.assemble_data_space_hessian")
    out["saddle.hessian.assemblies"] = (len(hess), "count")
    out["saddle.hessian.self_s"] = (total_self(hess), "s")
    out["saddle.hessian.columns"] = (total_attr(hess, "columns"), "count")
    out["saddle.hessian.bytes"] = (max((spans[i][4]["bytes"] for i in hess), default=0), "B")

    factor_calls = named("saddle.HessianCache.shifted_factor")
    factorizations = trace["factorizations"]
    out["saddle.factor.calls"] = (len(factor_calls), "count")
    out["saddle.factor.count"] = (factorizations, "count")
    out["saddle.factor.self_s"] = (
        total_self(factor_calls + named("saddle.HessianCache.hessian")), "s")
    hits = len(factor_calls) - factorizations
    out["saddle.cache.hit_ratio"] = (hits / len(factor_calls) if factor_calls else 0.0, "ratio")
    out["saddle.multiplier.self_s"] = (
        total_self(named("saddle.solve_ls_multiplier", "saddle.damped_trace_multiplier")), "s")

    cg = named("saddle.solve_augmented_wavefield")
    out["saddle.cg.solves"] = (len(cg), "count")
    out["saddle.cg.iterations"] = (total_attr(cg, "iterations"), "count")
    out["saddle.cg.unconverged"] = (sum(not spans[i][4]["converged"] for i in cg), "count")
    out["saddle.cg.max_rel_residual"] = (max((spans[i][4]["rel_residual"] for i in cg), default=0.0), "ratio")
    out["saddle.cg.self_s"] = (total_self(cg), "s")

    steps = named("iterations.step_scheme")
    step_fns = [i for i, s in enumerate(spans) if s[0].startswith("iterations.") and s[0].endswith("_step")]
    runs = named("iterations.run_inversion")
    out["iterations.outer_iterations"] = (len(steps), "count")
    out["iterations.step.self_s"] = (total_self(steps + step_fns), "s")
    out["iterations.model_update.self_s"] = (total_self(named("iterations.combined_model_update")), "s")
    # the driver's own share: run_inversion minus the steps it made (warm
    # start, diagnostics, stopping-rule re-solves)
    driven = [i for i in steps if spans[i][3] in runs]
    out["iterations.driver_s"] = (sum(duration[i] for i in runs) - sum(duration[i] for i in driven), "s")

    entries = [i for i, s in enumerate(spans) if _layer(s[0]) == "oracle"
               and (s[3] < 0 or _layer(spans[s[3]][0]) != "oracle")]
    out["oracle.calls"] = (len(entries), "count")

    # time inside calls made from the CLI entry point into the layers below it
    below_cli = [i for i, s in enumerate(spans) if _layer(s[0]) != "cli"
                 and (s[3] < 0 or _layer(spans[s[3]][0]) == "cli")]
    covered = sum(duration[i] for i in below_cli)
    out["trace.coverage"] = (covered / run_s if run_s > 0 else 0.0, "ratio")
    return out
