#!/usr/bin/env python3
"""Time each longmi subcommand in fresh interpreters, for one or two trees.

Every subcommand of the paper's workflow (simulate, impute, analyze,
pool, diag) runs as its own process, so each one pays the interpreter
and import start-up that an in-process benchmark pays once. ``longmi
--help`` and ``longmi impute --help`` show what listing the method
names in the help costs. This script
runs each subcommand ``--runs`` times in a new interpreter with BLAS
pinned to one thread and prints the median wall time, with quartiles,
per subcommand. Given two ``src/`` directories it alternates between
them, switching which goes first on every run, and prints both side by
side with the difference of the medians.

    python scripts/startup_times.py src
    python scripts/startup_times.py --runs 8 /path/to/parent/src src

The inputs (a simulated cohort, a jm-2l-wide imputation with its trace,
an fcs-3l imputation and its fits) are made once per tree, by that tree,
in its own work directory, so each tree reads files it wrote itself
(with the binary copies it writes beside its CSVs).
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

COHORT_SEED = "2946"
FORMULA = ("numeracy_score ~ prev_dep + time + age + numeracy_scorew1 + sex"
           " + factor(ses) + (1|school/id)")
JM_ARGS = ("--method", "jm-2l-wide", "--m", "2", "--nburn", "20", "--nbetween", "100")
FCS_ARGS = ("--method", "fcs-3l", "--m", "5", "--maxit", "3")


def steps(work: str) -> list[tuple[str, int, list[str]]]:
    """(label, expected exit code, argv) of each timed subcommand."""
    observed = os.path.join(work, "cohort", "observed.csv")
    out = os.path.join(work, "out")
    return [
        ("sim", 0, ["sim", "--seed", COHORT_SEED, "--out-dir", out]),
        ("impute jm-2l-wide", 0, ["impute", "--input", observed, *JM_ARGS,
                                  "--out-dir", out]),
        ("impute fcs-3l", 0, ["impute", "--input", observed, *FCS_ARGS,
                              "--out-dir", out]),
        ("analyze (1|school/id)", 0, [
            "analyze", "--input", os.path.join(work, "fcs", "imputations.csv"),
            "--formula", FORMULA, "--out-dir", out]),
        ("pool", 0, ["pool", "--fits", os.path.join(work, "fits"), "--out-dir", out]),
        ("diag", 0, ["diag", "--trace", os.path.join(work, "jm", "trace.csv"),
                     "--out-dir", out]),
        ("BadConfig exit", 2, ["impute", "--input", observed, "--method", "fcs-3l",
                               "--m", "0", "--out-dir", out]),
        ("--help", 0, ["--help"]),
        ("impute --help", 0, ["impute", "--help"]),
    ]


def environment(src: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def longmi(src: str, argv: list[str], expect: int = 0) -> float:
    """Wall time of ``longmi <argv>`` in a fresh interpreter."""
    cmd = [sys.executable, "-m", "longmi.cli", *argv]
    t = time.perf_counter()
    res = subprocess.run(cmd, env=environment(src), capture_output=True, text=True)
    elapsed = time.perf_counter() - t
    if res.returncode != expect:
        raise SystemExit(f"{' '.join(argv[:3])} under {src} exited "
                         f"{res.returncode}, expected {expect}:\n{res.stderr}")
    return elapsed


def prepare(src: str, work: str) -> None:
    observed = os.path.join(work, "cohort", "observed.csv")
    longmi(src, ["sim", "--seed", COHORT_SEED, "--out-dir", os.path.join(work, "cohort")])
    longmi(src, ["impute", "--input", observed, *JM_ARGS,
                 "--out-dir", os.path.join(work, "jm")])
    longmi(src, ["impute", "--input", observed, *FCS_ARGS,
                 "--out-dir", os.path.join(work, "fcs")])
    longmi(src, ["analyze", "--input", os.path.join(work, "fcs", "imputations.csv"),
                 "--formula", FORMULA, "--out-dir", os.path.join(work, "fits")])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="+", help="one or two src/ directories")
    ap.add_argument("--runs", type=int, default=5,
                    help="fresh interpreters per subcommand and tree")
    args = ap.parse_args(argv)
    if len(args.src) > 2:
        ap.error("give one or two src/ directories")
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    for src in args.src:
        if not os.path.isdir(os.path.join(src, "longmi")):
            ap.error(f"no longmi package under {src}")

    with tempfile.TemporaryDirectory(prefix="longmi-startup-") as tmp:
        plans = {}
        for i, src in enumerate(args.src):
            work = os.path.join(tmp, f"tree{i + 1}")
            prepare(src, work)
            plans[src] = steps(work)
        plan = plans[args.src[0]]
        times = {(label, src): [] for label, _, _ in plan for src in args.src}
        for run in range(args.runs):
            order = args.src if run % 2 == 0 else args.src[::-1]
            for step in range(len(plan)):
                for src in order:
                    label, expect, step_argv = plans[src][step]
                    times[label, src].append(longmi(src, step_argv, expect))

    print(f"wall time over {args.runs} fresh interpreters (s): median [quartiles]")
    print(f"{'subcommand':24s}" + "".join(f"{'tree ' + str(i + 1):>22s}"
                                         for i in range(len(args.src))))
    for label, _, _ in plan:
        row, medians = f"{label:24s}", []
        for src in args.src:
            t = times[label, src]
            q1, med, q3 = statistics.quantiles(t, n=4) if len(t) > 1 else t * 3
            row += f"{med:8.3f} [{q1:.3f}, {q3:.3f}]"
            medians.append(med)
        if len(medians) == 2:
            row += f"   {medians[1] - medians[0]:+.3f}"
        print(row)
    for i, src in enumerate(args.src):
        print(f"tree {i + 1}: {os.path.abspath(src)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
