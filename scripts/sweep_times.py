#!/usr/bin/env python3
"""Time the JM Gibbs sweep or the LMM fit in process, for one or two trees.

Each run is a fresh interpreter with BLAS pinned to one thread that
simulates the cohorts 2946-2948. ``--layer jm`` (the default) warms
every joint-model method up once, and then reports, per method, the CPU
time of ``build_and_run(<method>, m=1, nburn=K)`` over the three cohorts
divided by the 3K sweeps (set-up, reshapes and the one snapshot are
included, so K should be large enough to amortise them). ``--layer lmm``
first imputes each cohort with ``fcs-3l`` (m 5, maxit 3) under the first
tree and writes the 15 completed datasets to CSV files, so that both
trees fit the same data even when their imputations differ. Each run
then reads those files and reports, for the
``(1|id)`` and ``(1|school/id)`` REML fits of the benchmark's analysis
formula over the 15 datasets, the CPU ms per fit (median of
five passes) and the ``lmm._deviance_core`` calls per fit; then it fits
the 300 synthetic nested designs of ``generator_designs`` by ML and by
REML and reports the fits not converged, the fits on the boundary, and
the median and 90th percentile of the Newton iterations of the interior
and of the boundary fits. Given
two ``src/`` directories the runs come in pairs, one per tree, and the
trees alternate which goes first. The script prints each tree's median
per row and, with two trees, the median of the per-pair ratios tree 2 /
tree 1 and the number of pairs in which tree 2 was lower.

    python scripts/sweep_times.py src
    python scripts/sweep_times.py --pairs 10 /path/to/parent/src src
    python scripts/sweep_times.py --layer lmm --pairs 5 /path/to/parent/src src
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

COHORTS = (2946, 2947, 2948)
SEED = 7
FORMULA = ("numeracy_score ~ prev_dep + time + age + numeracy_scorew1 + sex"
           " + factor(ses) + ")
TITLES = {"jm": "CPU ms per sweep", "lmm": "CPU ms and _deviance_core calls per fit"}
LMM_PASSES = 5
GENERATOR_SEED = 20261020
GENERATOR_DESIGNS = 300


def cohorts():
    import warnings

    from longmi.rng import RngStream
    from longmi.simulate import SimConfig, simulate

    warnings.simplefilter("ignore")
    return [simulate(RngStream(s), SimConfig(seed=s)).observed for s in COHORTS]


def generator_designs():
    """(y, X, [school, student]) for each synthetic nested design: 5-29
    schools of 2-11 students with 1-3 rows each, school sd ~ U(0, 0.3),
    student sd ~ U(0, 1), residual sd 1 and y = 1 + 0.5 x + effects + e
    for x ~ N(0, 1). Small school variances put many fits on the
    boundary."""
    import numpy as np

    rng = np.random.default_rng(GENERATOR_SEED)
    for _ in range(GENERATOR_DESIGNS):
        n_school = rng.integers(5, 30)
        school_of = np.repeat(np.arange(n_school), rng.integers(2, 12, n_school))
        rows = rng.integers(1, 4, len(school_of))
        school = np.repeat(school_of, rows)
        student = np.repeat(np.arange(len(school_of)), rows)
        sd_school, sd_student = rng.uniform(0, 0.3), rng.uniform(0, 1)
        x = rng.normal(size=len(school))
        y = (1.0 + 0.5 * x + rng.normal(0, sd_school, n_school)[school]
             + rng.normal(0, sd_student, len(rows))[student]
             + rng.normal(size=len(school)))
        yield y, np.column_stack([np.ones(len(y)), x]), [school, student]


def measure_jm(args) -> dict[str, float]:
    """CPU ms per sweep of each joint-model method (worker side)."""
    from longmi.methods import CATALOG, build_and_run
    from longmi.rng import RngStream

    methods = [name for name, row in CATALOG.items() if row.engine == "jm"]
    observed = cohorts()
    for method in methods:
        build_and_run(RngStream(SEED), method, observed[0], m=1, nburn=2)
    out = {}
    for method in methods:
        t = time.process_time()
        for d in observed:
            build_and_run(RngStream(SEED), method, d, m=1, nburn=args.nburn)
        out[method] = 1e3 * (time.process_time() - t) / (args.nburn * len(observed))
    return out


def write_lmm_data(args) -> dict[str, float]:
    """Write the ``fcs-3l`` imputations of the cohorts under ``args.data``
    (worker side, first tree only)."""
    from longmi.methods import build_and_run
    from longmi.rng import RngStream
    from longmi.table import write_csv

    data = [imp for d in cohorts() for imp in build_and_run(
        RngStream(SEED), "fcs-3l", d, m=5, maxit=3).stack.imputations]
    for i, d in enumerate(data):
        write_csv(d, os.path.join(args.data, f"imputation_{i:02d}.csv"))
    return {"datasets": len(data)}


def measure_lmm(args) -> dict[str, float]:
    """CPU ms and deviance evaluations per REML fit (worker side)."""
    from longmi import lmm
    from longmi.table import read_csv

    data = [read_csv(path) for path in
            sorted(glob.glob(os.path.join(args.data, "imputation_*.csv")))]
    out = {}
    for random in ("(1|id)", "(1|school/id)"):
        formula = FORMULA + random
        lmm.fit_lmm(formula, data[0])  # warm-up
        passes = []
        for _ in range(LMM_PASSES):
            t = time.process_time()
            for d in data:
                lmm.fit_lmm(formula, d)
            passes.append(1e3 * (time.process_time() - t) / len(data))
        out[f"{random} ms"] = statistics.median(passes)
        core, calls = lmm._deviance_core, [0]

        def counted(*a, **k):
            calls[0] += 1
            return core(*a, **k)

        lmm._deviance_core = counted
        try:
            for d in data:
                lmm.fit_lmm(formula, d)
        finally:
            lmm._deviance_core = core
        out[f"{random} calls"] = calls[0] / len(data)
    iterations = {"interior": [], "boundary": []}
    nonconverged = 0
    for y, X, codes in generator_designs():
        for crit in ("ML", "REML"):
            fit = lmm.fit_lmm_arrays(y, X, codes, crit)
            nonconverged += not fit.converged
            iterations["boundary" if fit.boundary else "interior"].append(fit.n_iter)
    out["gen nonconverged"] = nonconverged
    out["gen boundary fits"] = len(iterations["boundary"])
    for kind, its in iterations.items():
        its = its or [0]
        out[f"gen {kind} it p50"] = statistics.median(its)
        out[f"gen {kind} it p90"] = (
            statistics.quantiles(its, n=10, method="inclusive")[-1] if len(its) > 1
            else its[0]
        )
    return out


def run(src: str, args, *extra: str) -> dict[str, float]:
    """One fresh-interpreter run on ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", "--layer", args.layer,
           "--nburn", str(args.nburn), "--data", args.data, *extra]
    res = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if res.returncode != 0:
        raise SystemExit(f"run under {src} exited {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="*", help="one or two src/ directories")
    ap.add_argument("--pairs", type=int, default=5,
                    help="runs per tree (pairs of runs with two trees)")
    ap.add_argument("--layer", choices=sorted(TITLES), default="jm",
                    help="what to time: the JM sweep or the LMM fit")
    ap.add_argument("--nburn", type=int, default=100, help="jm: sweeps per cohort")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--data", default="", help=argparse.SUPPRESS)
    ap.add_argument("--write-data", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.nburn < 1:
        ap.error("--nburn must be at least 1")
    if args.worker:
        measure = (write_lmm_data if args.write_data
                   else measure_jm if args.layer == "jm" else measure_lmm)
        print(json.dumps(measure(args)))
        return 0
    if not 1 <= len(args.src) <= 2:
        ap.error("give one or two src/ directories")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    for src in args.src:
        if not os.path.isdir(os.path.join(src, "longmi")):
            ap.error(f"no longmi package under {src}")

    runs = {src: [] for src in args.src}
    with tempfile.TemporaryDirectory(prefix="longmi-sweep-") as args.data:
        if args.layer == "lmm":
            run(args.src[0], args, "--write-data")
        for i in range(args.pairs):
            for src in args.src if i % 2 == 0 else args.src[::-1]:
                runs[src].append(run(src, args))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    first = runs[args.src[0]]
    setting = f"nburn {args.nburn}" if args.layer == "jm" else f"{LMM_PASSES} passes"
    print(f"{TITLES[args.layer]}, median over {args.pairs} runs per tree "
          f"({setting}, cohorts {COHORTS[0]}-{COHORTS[-1]})")
    head = f"{'row':20s}" + "".join(f"{'tree ' + str(i + 1):>10s}"
                                    for i in range(len(args.src)))
    print(head + ("   ratio 2/1  pairs 2 lower" if len(args.src) == 2 else ""))
    for method in first[0]:
        row = f"{method:20s}"
        for src in args.src:
            row += f"{statistics.median(r[method] for r in runs[src]):10.3f}"
        if len(args.src) == 2:
            pairs = list(zip(first, runs[args.src[1]]))
            wins = sum(b[method] < a[method] for a, b in pairs)
            if all(a[method] for a, _ in pairs):
                ratio = statistics.median(b[method] / a[method] for a, b in pairs)
                row += f"{ratio:12.3f}"
            else:
                row += f"{'-':>12s}"
            row += f"  {wins:>5d}/{len(pairs)}"
        print(row)
    for i, src in enumerate(args.src):
        print(f"tree {i + 1}: {os.path.abspath(src)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
