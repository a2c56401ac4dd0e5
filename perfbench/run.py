#!/usr/bin/env python3
"""End-to-end benchmark of the longmi sim -> impute -> analyze -> pool path.

Run from the repository root:

    python3 perfbench/run.py --workload jm-cluster-cov --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 1

One process, one client, closed loop: after set-up (import longmi, then
``longmi sim`` for each of three fixed cohorts) the benchmark calls
``longmi.cli.main`` for ``impute`` -> ``analyze`` -> ``pool`` with
``--workers 1``, waits for each pipeline to finish, and starts the next,
cycling over the cohorts, until ``--seconds`` are used. The impute seed
is made from ``--seed``. A timing is the mean over the cohorts of each
cohort's median pipeline.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced pipelines on the first cohort and reports the
per-layer metrics (see perfbench/README.md) plus the tracing overhead;
the spans are written to ``perfbench/out/``.

Each pipeline passes the correctness gate or counts as failed: every
subcommand exits 0, the pooled ``prev_dep`` lies in the acceptance band,
the pooled sd components lie in theirs, ``pooled.csv`` is byte-identical
to the cohort's first pipeline, and (traced) the exact counts repeat.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: with two OpenBLAS threads on a two-core
# host a single (1|id) fit's median doubled and its maximum rose ~5x.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

FORMULA = ("numeracy_score ~ prev_dep + time + age + numeracy_scorew1 + sex"
           " + factor(ses) + ")
TRUTH_BETA1 = -0.020
SD_BANDS = {"id": (0.20, 0.36), "residual": (0.20, 0.32), "school": (0.01, 0.10)}
SETUP_REPEATS = 3
# Simulator seeds of the cohorts every run cycles over: the package's
# default seed and the next two, picked before any was timed. The cost of
# a pipeline depends on its cohort (nested LMM iterations, JM missingness
# patterns): with a cohort drawn from --seed, the nested analysis of one
# run took 1.2 s and of another 3.4 s. So the cohorts are fixed and
# --seed drives the imputation.
COHORT_SEEDS = (2946, 2947, 2948)
MIN_PIPELINES = len(COHORT_SEEDS) + 1  # so at least one cohort repeats


@dataclass(frozen=True)
class Workload:
    method: str
    random: str
    se_ref: float  # reference SE of prev_dep (acceptance criteria 3 and 4)
    impute_args: tuple[str, ...]


# The default cohort (40 schools, 1200 students, 3600 long rows) for all.
# Sizes are cut from the settings the workloads were chosen at so that a
# run holds several pipelines; each keeps its dominant layer. A fourth,
# jm-1l-wide (common-covariance JM sampler), was dropped: four workloads
# left 24 s per run, too short to average out the host's speed drift.
WORKLOADS = {
    # cluster-specific JM sampler ~90 % of the pipeline
    "jm-cluster-cov": Workload("jm-2l-wide", "(1|id)", 0.037,
                               ("--m", "2", "--nburn", "20", "--nbetween", "100")),
    # nested-intercept LMM fits dominate, FCS nested Gibbs the rest
    "fcs3l-nested": Workload("fcs-3l", "(1|school/id)", 0.034,
                             ("--m", "5", "--maxit", "3")),
    # FCS fitters plus writing/reading a 20-imputation stack; scalar LMM
    "fcs-wide-m20": Workload("fcs-1l-wide", "(1|id)", 0.033,
                             ("--m", "20", "--maxit", "4")),
}


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _blas_threads() -> int | None:
    """Ask the loaded OpenBLAS how many threads it will use."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, sim_seeds, impute_seed) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_revision": _git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "sim_seeds": list(sim_seeds),
        "impute_seed": impute_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import longmi.cli; "
    "print(time.perf_counter() - t)"
)


def time_import() -> float:
    """Median import time of longmi.cli in fresh interpreters."""
    cmd = [sys.executable, "-c", _IMPORT_PROBE, SRC]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        if i:  # the first one may compile bytecode
            samples.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def cli(argv) -> int:
    """longmi.cli.main with its stdout captured; any exit counts."""
    from longmi.cli import main

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except Exception:  # noqa: BLE001 - counted as a failed pipeline
        traceback.print_exc()
        return 1


def simulate_cohorts(work, sim_seeds) -> float:
    """Run ``longmi sim`` once per cohort; median wall time."""
    samples = []
    for c, seed in enumerate(sim_seeds):
        t = time.perf_counter()
        rc = cli(["sim", "--seed", str(seed), "--out-dir", cohort_dir(work, c)])
        samples.append(time.perf_counter() - t)
        if rc != 0:
            raise RuntimeError(f"longmi sim exited {rc}")
    return statistics.median(samples)


def cohort_dir(work, c) -> str:
    return os.path.join(work, f"cohort{c}")


# ---------------------------------------------------------------------------
# one pipeline
# ---------------------------------------------------------------------------


class Pipeline:
    """impute -> analyze -> pool on one cohort, with its correctness gate."""

    def __init__(self, wl: Workload, work: str, impute_seed: int):
        self.wl = wl
        self.observed = os.path.join(work, "observed.csv")
        self.imp = os.path.join(work, "imp")
        self.fits = os.path.join(work, "fits")
        self.pooled = os.path.join(work, "pooled")
        self.steps = (
            ("impute", ["impute", "--input", self.observed,
                        "--method", wl.method, *wl.impute_args,
                        "--seed", str(impute_seed), "--workers", "1",
                        "--out-dir", self.imp]),
            ("analyze", ["analyze", "--input",
                         os.path.join(self.imp, "imputations.csv"),
                         "--formula", FORMULA + wl.random,
                         "--out-dir", self.fits]),
            ("pool", ["pool", "--fits", self.fits, "--out-dir", self.pooled]),
        )
        self.reference: bytes | None = None

    def run(self, tracer=None) -> tuple[dict[str, float], list[str]]:
        """Run impute -> analyze -> pool; return step times and failures."""
        for d in (self.imp, self.fits, self.pooled):
            shutil.rmtree(d, ignore_errors=True)
        times = {}
        for step, argv in self.steps:
            span = tracer.span(f"cli.{step}") if tracer else contextlib.nullcontext({})
            t = time.perf_counter()
            with span as sp:
                rc = cli(argv)
            times[step] = time.perf_counter() - t
            if rc != 0:
                return times, [f"{step} exited {rc}"]
            if step == "impute":
                sp["counts"] = {"trace_bytes": sum(
                    os.path.getsize(os.path.join(self.imp, f))
                    for f in ("trace.csv", "chain_stats.csv")
                    if os.path.exists(os.path.join(self.imp, f)))}
        times["pipeline"] = sum(times.values())
        return times, self.check()

    def check(self) -> list[str]:
        problems = []
        with open(os.path.join(self.pooled, "pooled.json")) as fh:
            pooled = json.load(fh)
        beta = next(p["estimate"] for p in pooled["params"]
                    if p["name"] == "prev_dep")
        lo = TRUTH_BETA1 - 3 * self.wl.se_ref
        hi = TRUTH_BETA1 + 3 * self.wl.se_ref
        if not lo <= beta <= hi:
            problems.append(f"prev_dep {beta:+.4f} outside [{lo:+.3f}, {hi:+.3f}]")
        for comp, var in pooled["var_components"].items():
            sd = math.sqrt(var)
            band = SD_BANDS[comp]
            if not band[0] <= sd <= band[1]:
                problems.append(f"sd({comp}) {sd:.3f} outside {list(band)}")
        with open(os.path.join(self.pooled, "pooled.csv"), "rb") as fh:
            body = fh.read()
        if self.reference is None:
            self.reference = body
        elif body != self.reference:
            problems.append("pooled.csv differs from the cohort's first pipeline")
        return problems


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"perfbench: {label} FAILED: {'; '.join(problems)}",
                  file=sys.stderr)


def _keep_going(start, seconds, durations) -> bool:
    """Start another pipeline while its expected end fits the window."""
    if len(durations) < MIN_PIPELINES:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(durations) <= seconds


def measure(pipes: list[Pipeline], seconds: float, tally: Tally) -> dict[str, float]:
    """Cycle over the cohorts' pipelines. A timing is the mean over the
    cohorts of each cohort's median, so host noise and the cohorts'
    differing cost are both damped."""
    per_cohort: list[list[dict]] = [[] for _ in pipes]
    durations = []
    start = time.perf_counter()
    while _keep_going(start, seconds, durations):
        c = len(durations) % len(pipes)
        times, problems = pipes[c].run()
        tally.record(f"pipeline {tally.attempted + 1} (cohort {c})", problems)
        if "pipeline" not in times:  # a subcommand failed: no comparable time
            break
        per_cohort[c].append(times)
        durations.append(times["pipeline"])
    print(f"perfbench: {len(durations)} pipelines, pipeline_s "
          + " ".join(f"{t:.3f}" for t in durations), file=sys.stderr)
    if not all(per_cohort):
        return {}
    values = {
        f"{k}_s": statistics.fmean(
            statistics.median(t[k] for t in runs) for runs in per_cohort)
        for k in ("pipeline", "impute", "analyze")
    }
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values


def measure_traced(pipe: Pipeline, seconds: float, tally: Tally,
                   tracer, sim_spans) -> tuple[dict[str, float], list[dict]]:
    """Alternate untraced and traced pipelines on one cohort; per-layer
    medians over the traced ones."""
    from tracing import EXACT_COUNTS, layer_metrics

    plain, traced, layers = [], [], []
    start = time.perf_counter()
    all_times = []
    while len(traced) < 2 or _keep_going(start, seconds, all_times):
        use_trace = len(all_times) % 2 == 1
        if use_trace:
            tracer.run_id = f"pipeline-{len(traced)}"
            tracer.install()
        try:
            times, problems = pipe.run(tracer if use_trace else None)
        finally:
            tracer.uninstall()
        if not problems and use_trace:
            mine = [sp for sp in tracer.dump() if sp["run"] == tracer.run_id]
            layers.append(layer_metrics(mine))
            first = layers[0]
            problems = [
                f"exact count {k} = {layers[-1][k]} vs {first[k]} in the first"
                for k in EXACT_COUNTS if layers[-1][k] != first[k]
            ]
        tally.record(f"pipeline {tally.attempted + 1}"
                     f" ({'traced' if use_trace else 'untraced'})", problems)
        if "pipeline" not in times:
            break
        all_times.append(times["pipeline"])
        (traced if use_trace else plain).append(times["pipeline"])
    if not layers or not plain:
        return {}, tracer.dump()
    metrics = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
    metrics["simulate.simulate_s"] = statistics.median(
        [sp["end"] - sp["start"] for sp in sim_spans] or [0.0])
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, tracer.dump()


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "longmi")):
        print(f"perfbench: no longmi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    wl = WORKLOADS[args.workload]

    import numpy as np

    impute_seed = int(np.random.SeedSequence(args.seed).generate_state(1)[0])
    env = environment(args, COHORT_SEEDS, impute_seed)
    print("perfbench env: " + json.dumps(env, sort_keys=True))

    work = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tally = Tally()
    try:
        import_s = time_import()
        import longmi.cli  # noqa: F401 - timed above in fresh interpreters

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.run_id = "setup"
            tracer.install()
        try:
            sim_s = simulate_cohorts(work, COHORT_SEEDS)
        finally:
            if tracer:
                tracer.uninstall()
        pipes = [Pipeline(wl, cohort_dir(work, c), impute_seed)
                 for c in range(len(COHORT_SEEDS))]
        if tracer:
            sim_spans = [sp for sp in tracer.spans
                         if sp["name"] == "simulate.simulate"]
            values, spans = measure_traced(pipes[0], args.seconds, tally, tracer,
                                           sim_spans)
            units = metric_units("per_layer")
            os.makedirs(OUT, exist_ok=True)
            trace_path = os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_path, "w") as fh:
                json.dump({"env": env, "spans": spans}, fh)
            print(f"perfbench: spans -> {trace_path}")
        else:
            values = measure(pipes, args.seconds, tally)
            values["setup_s"] = import_s + sim_s
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = tally.failed == 0 and set(values) >= set(units)
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table, one JSON line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {res.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"== {name}: {result['attempted']} pipelines, "
              f"{result['failed']} failed")
        for metric, m in result["metrics"].items():
            print(f"{name:16s} {metric:36s} {m['value']:.6g} {m['unit']}")
            metrics[f"{name}.{metric}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
