"""In-memory span tracer and the per-layer metrics computed from it.

The tracer wraps longmi's public functions where the calling module
binds them (``longmi.cli.fit_lmm``, ``longmi.methods.run_jm``,
``longmi.fcs.impute_univariate``, ...), so the library itself carries no
probes. Each call becomes a span: name, start, end, parent span, run id
and the counts read off the call's arguments and result. Spans stay in
memory until the run ends; ``layer_metrics`` turns one pipeline's spans
into the per-layer numbers listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import sys
import time


def _csv_read_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _csv_write_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _imputer_counts(args, kwargs, result):
    return {"method": args[1]}


def _jm_counts(args, kwargs, result):
    _stack, trace = result
    return {"sweeps": trace.n_iter}


def _fcs_counts(args, kwargs, result):
    _stack, stats = result
    return {"cycles": len({(s.chain, s.iteration) for s in stats})}


def _lmm_counts(args, kwargs, result):
    return {
        "iterations": int(result.n_iter),
        "converged": bool(result.converged),
        "boundary": bool(result.boundary),
    }


# (owner, attribute, span name, counts read from the call). The owner is
# the module or class whose attribute the calling code looks up.
HOOKS = (
    ("longmi.cli", "simulate", "simulate.simulate", None),
    ("longmi.cli", "read_csv", "table.read_csv", _csv_read_counts),
    ("longmi.cli", "write_csv", "table.write_csv", _csv_write_counts),
    ("longmi.cli", "build_and_run", "methods.build_and_run", None),
    ("longmi.cli", "fit_lmm", "lmm.fit_lmm", _lmm_counts),
    ("longmi.cli", "pool", "pooling.pool", None),
    ("longmi.methods", "detect_map", "methods.detect_map", None),
    ("longmi.methods", "reshape_long_to_wide", "table.reshape", None),
    ("longmi.methods", "reshape_wide_to_long", "table.reshape", None),
    ("longmi.methods", "run_jm", "jm.run_jm", _jm_counts),
    ("longmi.methods", "run_fcs", "fcs.run_fcs", _fcs_counts),
    ("longmi.fcs._Chain", "visit", "fcs.visit", None),
    ("longmi.fcs", "impute_univariate", "fcs.impute_univariate", _imputer_counts),
    ("longmi.fcs", "fit_linear_and_draw", "fitters.fit_linear", None),
    ("longmi.fcs", "fit_logistic", "fitters.fit_logistic", None),
    ("longmi.fcs", "fit_polr", "fitters.fit_polr", None),
    ("longmi.stack.ImputedStack", "to_stacked", "stack.to_stacked", None),
    ("longmi.stack.ImputedStack", "from_stacked", "stack.from_stacked", None),
)

# FCS univariate methods the workloads run; each gets an imputer_s metric.
IMPUTER_METHODS = ("norm", "logreg", "polr", "ml.lmer.continuous", "ml.lmer.pmm")


def _resolve(owner_path: str):
    """Import ``a.b.C`` as module ``a.b`` then attribute ``C``."""
    try:
        return importlib.import_module(owner_path)
    except ImportError:
        mod_path, _, cls = owner_path.rpartition(".")
        return getattr(importlib.import_module(mod_path), cls)


class Tracer:
    """Span recorder; ``install`` wraps the hooks, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def _open(self, name: str) -> dict:
        sp = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(sp)
        self._stack.append(sp["id"])
        return sp

    def _close(self, sp: dict):
        sp["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counts):
        tracer = self

        def traced(*args, **kwargs):
            sp = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                sp["counts"]["error"] = type(e).__name__
                raise
            finally:
                tracer._close(sp)
            if counts is not None:
                sp["counts"].update(counts(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner_path, attr, name, counts in HOOKS:
            owner = _resolve(owner_path)
            orig = vars(owner).get(attr)
            if orig is None:
                print(f"perfbench: hook {owner_path}.{attr} not found; "
                      "its layer metrics read 0", file=sys.stderr)
                continue
            if isinstance(orig, classmethod):
                new = classmethod(self._wrap(orig.__func__, name, counts))
            else:
                new = self._wrap(orig, name, counts)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def dump(self) -> list[dict]:
        """Spans with their self time (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp["parent"] is not None:
                child[sp["parent"]] += sp["end"] - sp["start"]
        return [
            {**sp, "self": sp["end"] - sp["start"] - child[sp["id"]]}
            for sp in self.spans
        ]


def _p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers for the spans of one pipeline run."""
    by = {}
    for sp in spans:
        by.setdefault(sp["name"], []).append(sp)

    def dur(name):
        return [sp["end"] - sp["start"] for sp in by.get(name, [])]

    def total(name):
        return sum(dur(name))

    def count_sum(name, key):
        return sum(sp["counts"].get(key, 0) for sp in by.get(name, []))

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}

    jm_s, sweeps = total("jm.run_jm"), count_sum("jm.run_jm", "sweeps")
    out["jm.run_s"] = jm_s
    out["jm.sweeps"] = sweeps
    out["jm.ms_per_sweep"] = ratio(1e3 * jm_s, sweeps)

    fcs_s, imp_s = total("fcs.run_fcs"), total("fcs.impute_univariate")
    visit_ms = sorted(1e3 * d for d in dur("fcs.visit"))
    out["fcs.run_s"] = fcs_s
    out["fcs.cycles"] = count_sum("fcs.run_fcs", "cycles")
    out["fcs.visits"] = len(by.get("fcs.impute_univariate", []))
    out["fcs.visit_ms_p50"] = statistics.median(visit_ms) if visit_ms else 0.0
    out["fcs.visit_ms_p90"] = _p90(visit_ms)
    for method in IMPUTER_METHODS:
        out[f"fcs.imputer_s.{method}"] = sum(
            sp["end"] - sp["start"]
            for sp in by.get("fcs.impute_univariate", [])
            if sp["counts"].get("method") == method
        )
    out["fcs.design_s"] = fcs_s - imp_s

    attempts = separations = 0
    for kind in ("linear", "logistic", "polr"):
        name = f"fitters.fit_{kind}"
        out[f"{name}_s"] = total(name)
        out[f"{name}_calls"] = len(by.get(name, []))
        if kind != "linear":
            attempts += len(by.get(name, []))
            separations += sum(
                sp["counts"].get("error") == "PerfectSeparation"
                for sp in by.get(name, [])
            )
    out["fitters.separations"] = ratio(separations, attempts)

    fits = by.get("lmm.fit_lmm", [])
    fit_ms = sorted(1e3 * d for d in dur("lmm.fit_lmm"))
    iterations = count_sum("lmm.fit_lmm", "iterations")
    out["lmm.fits"] = len(fits)
    out["lmm.fit_ms_p50"] = statistics.median(fit_ms) if fit_ms else 0.0
    out["lmm.fit_ms_p90"] = _p90(fit_ms)
    out["lmm.iterations"] = iterations
    out["lmm.ms_per_iteration"] = ratio(sum(fit_ms), iterations)
    out["lmm.nonconverged"] = ratio(
        sum(not sp["counts"].get("converged", True) for sp in fits), len(fits))
    out["lmm.boundary_hits"] = ratio(
        sum(sp["counts"].get("boundary", False) for sp in fits), len(fits))

    write_s, read_s = total("table.write_csv"), total("table.read_csv")
    csv_bytes = (count_sum("table.write_csv", "bytes")
                 + count_sum("table.read_csv", "bytes"))
    out["table.write_csv_s"] = write_s
    out["table.read_csv_s"] = read_s
    out["table.csv_bytes"] = csv_bytes
    out["table.csv_mb_per_s"] = ratio(csv_bytes / 1e6, write_s + read_s)
    out["table.reshape_s"] = total("table.reshape")

    out["stack.to_stacked_s"] = total("stack.to_stacked")
    out["stack.from_stacked_s"] = total("stack.from_stacked")

    out["methods.detect_map_s"] = total("methods.detect_map")
    out["methods.self_s"] = sum(sp["self"] for sp in by.get("methods.build_and_run", []))

    out["cli.self_s"] = sum(
        sp["self"] for name in ("cli.impute", "cli.analyze", "cli.pool")
        for sp in by.get(name, [])
    )
    out["cli.trace_bytes"] = count_sum("cli.impute", "trace_bytes")

    out["pooling.pool_s"] = total("pooling.pool")
    return out


# Counts that must repeat bit-for-bit for a fixed seed.
EXACT_COUNTS = (
    "jm.sweeps", "fcs.cycles", "fcs.visits", "lmm.fits", "lmm.iterations",
    "table.csv_bytes", "cli.trace_bytes",
)
