#!/usr/bin/env python3
"""Time the joint-model Gibbs sweep in process, for one or two trees.

Each run is a fresh interpreter with BLAS pinned to one thread. It
simulates the cohorts 2946-2948, warms every joint-model method up
once, and then reports, per method, the CPU time of
``build_and_run(<method>, m=1, nburn=K)`` over the three cohorts
divided by the 3K sweeps (set-up, reshapes and the one snapshot are
included, so K should be large enough to amortise them). Given two
``src/`` directories the runs come in pairs, one per tree, and the
trees alternate which goes first. The script prints each tree's median
per method and, with two trees, the median of the per-pair ratios
tree 2 / tree 1 and the number of pairs in which tree 2 was faster.

    python scripts/sweep_times.py src
    python scripts/sweep_times.py --pairs 10 /path/to/parent/src src
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

COHORTS = (2946, 2947, 2948)
SEED = 7


def measure(nburn: int) -> dict[str, float]:
    """CPU seconds per sweep of each joint-model method (worker side)."""
    import warnings

    from longmi.methods import CATALOG, build_and_run
    from longmi.rng import RngStream
    from longmi.simulate import SimConfig, simulate

    warnings.simplefilter("ignore")
    methods = [name for name, row in CATALOG.items() if row.engine == "jm"]
    cohorts = [simulate(RngStream(s), SimConfig(seed=s)).observed for s in COHORTS]
    for method in methods:
        build_and_run(RngStream(SEED), method, cohorts[0], m=1, nburn=2)
    out = {}
    for method in methods:
        t = time.process_time()
        for d in cohorts:
            build_and_run(RngStream(SEED), method, d, m=1, nburn=nburn)
        out[method] = (time.process_time() - t) / (nburn * len(cohorts))
    return out


def run(src: str, nburn: int) -> dict[str, float]:
    """One fresh-interpreter run on ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", "--nburn", str(nburn)]
    res = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if res.returncode != 0:
        raise SystemExit(f"run under {src} exited {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="*", help="one or two src/ directories")
    ap.add_argument("--pairs", type=int, default=5,
                    help="runs per tree (pairs of runs with two trees)")
    ap.add_argument("--nburn", type=int, default=100, help="sweeps per cohort")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.nburn < 1:
        ap.error("--nburn must be at least 1")
    if args.worker:
        print(json.dumps(measure(args.nburn)))
        return 0
    if not 1 <= len(args.src) <= 2:
        ap.error("give one or two src/ directories")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    for src in args.src:
        if not os.path.isdir(os.path.join(src, "longmi")):
            ap.error(f"no longmi package under {src}")

    runs = {src: [] for src in args.src}
    for i in range(args.pairs):
        for src in args.src if i % 2 == 0 else args.src[::-1]:
            runs[src].append(run(src, args.nburn))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    first = runs[args.src[0]]
    print(f"CPU ms per sweep, median over {args.pairs} runs per tree "
          f"(nburn {args.nburn}, cohorts {COHORTS[0]}-{COHORTS[-1]})")
    head = f"{'method':16s}" + "".join(f"{'tree ' + str(i + 1):>10s}"
                                       for i in range(len(args.src)))
    print(head + ("   ratio 2/1  pairs 2 faster" if len(args.src) == 2 else ""))
    for method in first[0]:
        row = f"{method:16s}"
        for src in args.src:
            row += f"{1e3 * statistics.median(r[method] for r in runs[src]):10.3f}"
        if len(args.src) == 2:
            pairs = list(zip(first, runs[args.src[1]]))
            ratio = statistics.median(b[method] / a[method] for a, b in pairs)
            wins = sum(b[method] < a[method] for a, b in pairs)
            row += f"{ratio:12.3f}  {wins:>5d}/{len(pairs)}"
        print(row)
    for i, src in enumerate(args.src):
        print(f"tree {i + 1}: {os.path.abspath(src)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
