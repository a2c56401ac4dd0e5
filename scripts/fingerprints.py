#!/usr/bin/env python3
"""Same-seed fingerprints of the twelve imputation pipelines.

Simulates cohort 2946, imputes it with every method at one small
setting (``--seed 7 --m 2 --maxit 2 --nburn 20 --nbetween 100``), and
takes the SHA-256 digest of each method's ``imputations.csv`` and of its
``trace.csv`` (JM) or ``chain_stats.csv`` (FCS). Two analyses follow,
each with its fits pooled: ``(1|id)`` on the ``jm-2l-wide`` imputations
and ``(1|school/id)`` on the ``fcs-3l`` ones; their ``fit_*.json`` and
``pooled.csv`` are digested too. ``tests/fingerprints.json`` holds the
digests with the numpy version and the machine they were taken on, and
``tests/test_fingerprints.py`` checks them.

    PYTHONPATH=src python scripts/fingerprints.py          # list what differs
    PYTHONPATH=src python scripts/fingerprints.py --write  # regenerate the file

A change that alters the outputs on purpose regenerates the file and
names the methods whose bytes changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import sys
import tempfile

FILE = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fingerprints.json"
COHORT_SEED = "2946"
IMPUTE_ARGS = ("--seed", "7", "--m", "2", "--maxit", "2", "--nburn", "20",
               "--nbetween", "100", "--workers", "1")
FORMULA = ("numeracy_score ~ prev_dep + time + age + numeracy_scorew1 + sex"
           " + factor(ses) + ")
ANALYSES = (("jm-2l-wide", "(1|id)"), ("fcs-3l", "(1|school/id)"))


def environment() -> dict[str, str]:
    """What the digests depend on besides the code: numpy and the machine."""
    import numpy as np

    return {"numpy": np.__version__,
            "machine": f"{platform.system()} {platform.machine()}"}


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(*argv: str) -> None:
    from longmi.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"longmi {' '.join(argv[:3])} exited {code}")


def digests(work: pathlib.Path) -> dict[str, dict[str, str]]:
    """{method or analysis: {file name: SHA-256}} computed under ``work``."""
    import warnings

    from longmi.methods import METHOD_NAMES

    observed = work / "cohort" / "observed.csv"
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _cli("sim", "--seed", COHORT_SEED, "--out-dir", str(work / "cohort"))
        for method in METHOD_NAMES:
            d = work / method
            _cli("impute", "--input", str(observed), "--method", method,
                 *IMPUTE_ARGS, "--out-dir", str(d))
            out[method] = {f: _sha256(d / f) for f in
                           ("imputations.csv", "trace.csv", "chain_stats.csv")
                           if (d / f).exists()}
        for method, random in ANALYSES:
            fits, pooled = work / f"fits {random}", work / f"pooled {random}"
            _cli("analyze", "--input", str(work / method / "imputations.csv"),
                 "--formula", FORMULA + random, "--out-dir", str(fits))
            _cli("pool", "--fits", str(fits), "--out-dir", str(pooled))
            files = sorted(fits.glob("fit_*.json")) + [pooled / "pooled.csv"]
            out[f"analyze {method} {random}"] = {f.name: _sha256(f) for f in files}
    return out


def differences(expected: dict, actual: dict) -> list[str]:
    """Every (method, file) whose digest differs, is missing or is new."""
    return [f"{key} {name}"
            for key in sorted(set(expected) | set(actual))
            for name in sorted(set(expected.get(key, {})) | set(actual.get(key, {})))
            if expected.get(key, {}).get(name) != actual.get(key, {}).get(name)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help=f"regenerate {FILE.name} instead of comparing with it")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="longmi-fingerprints-") as tmp:
        actual = digests(pathlib.Path(tmp))
    if args.write:
        FILE.write_text(json.dumps({"environment": environment(), "digests": actual},
                                   indent=2, sort_keys=True) + "\n")
        print(f"wrote {os.path.relpath(FILE)}")
        return 0
    committed = json.loads(FILE.read_text())
    if committed["environment"] != environment():
        print(f"note: {FILE.name} was recorded on {committed['environment']}, "
              f"this is {environment()}")
    changed = differences(committed["digests"], actual)
    print("\n".join(changed) if changed else "all digests match")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
