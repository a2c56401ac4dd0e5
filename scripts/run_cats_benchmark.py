#!/usr/bin/env python3
"""Benchmark every imputation method on one simulated cohort.

Simulates the default school-clustered cohort, runs each requested
method, fits the substantive mixed model per imputation, pools, and
prints one table row per method: the exposure coefficient with its
pooled SE, variance components (sd scale), and wall-clock minutes.

Quick look (small m, reduced burn-in):

    python scripts/run_cats_benchmark.py --quick

Full run at the recommended settings (m per the incomplete-record
rule is much larger; here m defaults to 20):

    python scripts/run_cats_benchmark.py --methods fcs-1l-wide jm-2l-wide
"""

import argparse
import math
import sys
import time
import warnings

sys.path.insert(0, "src")

from longmi.lmm import fit_lmm
from longmi.methods import CATALOG, METHOD_NAMES, build_and_run
from longmi.pooling import pool
from longmi.rng import RngStream
from longmi.simulate import SimConfig, simulate

EQ1 = (
    "numeracy_score ~ prev_dep + time + age + numeracy_scorew1 + sex"
    " + factor(ses) + (1|id)"
)
EQ2 = (
    "numeracy_score ~ prev_dep + time + age + numeracy_scorew1 + sex"
    " + factor(ses) + (1|school/id)"
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--methods", nargs="*", default=list(METHOD_NAMES))
    ap.add_argument("--m", type=int, default=20)
    ap.add_argument("--maxit", type=int, default=10)
    ap.add_argument("--nburn", type=int, default=1000)
    ap.add_argument("--nbetween", type=int, default=100)
    ap.add_argument("--seed", type=int, default=20260808)
    ap.add_argument("--quick", action="store_true",
                    help="m=5, maxit=5, nburn=200 for a fast pass")
    args = ap.parse_args()
    if args.quick:
        args.m, args.maxit, args.nburn = 5, 5, 200

    out = simulate(RngStream(args.seed), SimConfig(seed=args.seed))
    print(f"simulated cohort: {out.observed.n_rows} long rows, truth beta1 = "
          f"{out.truth.out_dep:+.3f}")
    header = (f"{'method':16s} {'beta1 (SE)':>18s} {'sd(school)':>10s} "
              f"{'sd(id)':>8s} {'sd(res)':>8s} {'min':>6s}")
    print(header)
    print("-" * len(header))
    for method in args.methods:
        t0 = time.time()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = build_and_run(
                    RngStream(args.seed + 1), method, out.observed,
                    m=args.m, maxit=args.maxit,
                    nburn=args.nburn, nbetween=args.nbetween,
                )
            # methods that model the school get the three-level analysis
            formula = EQ2 if CATALOG[method].cluster != "none" else EQ1
            fits = [fit_lmm(formula, d) for d in res.stack.imputations]
            pr = pool(fits)
            b = pr["prev_dep"]
            school = pr.var_components.get("school")
            school_s = f"{math.sqrt(school):10.3f}" if school is not None else " " * 10
            minutes = (time.time() - t0) / 60.0
            print(
                f"{method:16s} {b.estimate:+9.4f} ({b.se:.4f}) {school_s} "
                f"{math.sqrt(pr.var_components['id']):8.3f} "
                f"{math.sqrt(pr.var_components['residual']):8.3f} "
                f"{minutes:6.2f}"
            )
        except Exception as e:  # noqa: BLE001 - benchmark keeps going
            print(f"{method:16s} failed: {type(e).__name__}: {e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
