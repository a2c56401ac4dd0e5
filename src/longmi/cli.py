"""Batch command-line interface: sim, impute, analyze, pool, diag.

Every subcommand writes its outputs plus a ``run_manifest.json`` into
the output directory; chained subcommands check the upstream
manifest's tool version. Exit codes: 0 ok, 2 configuration error,
3 numeric failure, 4 convergence failure in strict mode.
"""

from __future__ import annotations

import argparse
import csv
import glob
import io
import json
import math
import os
import sys
import time

from . import __version__, deferred
from .errors import (
    BadConfig,
    DegenerateSeries,
    LongmiError,
    MisalignedParams,
    ParseError,
    TooFewImputations,
    UnknownColumn,
    UnknownParam,
    UnsupportedMethod,
)

# Each subcommand imports what it calls, so a process compiles only what it
# runs; these calls stay attributes here, where perfbench's tracer wraps them.
simulate, read_csv, write_csv = map(deferred, ("simulate", "read_csv", "write_csv"))
build_and_run, fit_lmm, pool = map(deferred, ("build_and_run", "fit_lmm", "pool"))

MANIFEST = "run_manifest.json"
WORKERS_ENV = "LONGMI_WORKERS"


def _atomic_json(obj, path):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _atomic_rows(path, header, rows):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    os.replace(tmp, path)


def _write_manifest(out_dir, subcommand, seed, inputs, outputs, configs, t0):
    _atomic_json(
        {
            "tool": "longmi",
            "version": __version__,
            "subcommand": subcommand,
            "seed": seed,
            "inputs": sorted(inputs),
            "outputs": sorted(outputs),
            "configs": sorted(configs),
            "duration_s": round(time.time() - t0, 3),
        },
        os.path.join(out_dir, MANIFEST),
    )


def _check_upstream(path):
    """Validate the manifest sitting next to an input file, if any."""
    manifest = os.path.join(os.path.dirname(os.path.abspath(path)), MANIFEST)
    if not os.path.exists(manifest):
        return
    with open(manifest) as fh:
        meta = json.load(fh)
    if meta.get("tool") == "longmi" and meta.get("version") != __version__:
        raise BadConfig(
            f"input {path} was produced by longmi {meta.get('version')}, "
            f"this is {__version__}; rerun the upstream step"
        )


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------


def cmd_sim(args) -> int:
    from .rng import RngStream
    from .simulate import SimConfig
    from .table import copy_path, incomplete_fraction, sidecar_path

    t0 = time.time()
    cfg_fields = {}
    if args.config:
        with open(args.config) as fh:
            try:
                cfg_fields = json.load(fh)
            except json.JSONDecodeError as e:
                raise BadConfig(f"config is not valid JSON: {e}") from e
    if args.seed is not None:
        cfg_fields["seed"] = args.seed
    cfg = SimConfig.from_dict(cfg_fields)
    os.makedirs(args.out_dir, exist_ok=True)
    out = simulate(RngStream(cfg.seed), cfg)
    paths = []
    for name, d in (("complete.csv", out.complete), ("observed.csv", out.observed)):
        p = os.path.join(args.out_dir, name)
        write_csv(d, p)
        paths += [p, sidecar_path(p), copy_path(p)]
    truth = os.path.join(args.out_dir, "truth.json")
    _atomic_json(out.truth.to_dict(), truth)
    paths.append(truth)
    frac_long = incomplete_fraction(out.observed, "long")
    print(
        f"sim: {out.observed.n_rows} long rows, "
        f"incomplete-record fraction {frac_long:.3f} (long)"
    )
    _write_manifest(args.out_dir, "sim", cfg.seed, [], paths,
                    [args.config] if args.config else [], t0)
    return 0


# ---------------------------------------------------------------------------
# impute
# ---------------------------------------------------------------------------


def _write_trace(path, trace) -> None:
    """Long ``iteration,parameter,value`` CSV, as ``csv.writer`` writes it.

    Each name is quoted once and each line is ``iteration,name,`` plus
    ``repr`` of the value, so no writer call is made per row.
    """
    from .table import csv_fields

    mat = trace.matrix()
    names = csv_fields(trace.names)
    heads = [f"{it},{name}," for it in range(1, len(mat) + 1) for name in names]
    lines = map(str.__add__, heads, map(repr, mat.ravel().tolist()))
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write("iteration,parameter,value\r\n")
        if heads:
            fh.write("\r\n".join(lines))
            fh.write("\r\n")
    os.replace(tmp, path)


def cmd_impute(args) -> int:
    from .rng import RngStream
    from .table import copy_path, sidecar_path

    t0 = time.time()
    if args.nbetween < 100:
        raise BadConfig("nbetween below 100 risks dependent imputations")
    for flag, least in (("m", 1), ("maxit", 1), ("nburn", 1), ("seed", 0)):
        if getattr(args, flag) < least:
            raise BadConfig(f"--{flag} must be at least {least}")
    baseline = {}
    for item in args.mtw_baseline or []:
        col, _, wave = item.partition("=")
        try:
            baseline[col] = int(wave)
        except ValueError:
            raise BadConfig(f"--mtw-baseline wants col=wave, got {item!r}") from None
    _check_upstream(args.input)
    observed = read_csv(args.input)
    os.makedirs(args.out_dir, exist_ok=True)
    if not baseline and "numeracy_scorew1" in observed.col_names:
        baseline = {"numeracy_scorew1": 1}
    rng = RngStream(args.seed)
    result = build_and_run(
        rng,
        args.method,
        observed,
        m=args.m,
        maxit=args.maxit,
        nburn=args.nburn,
        nbetween=args.nbetween,
        mtw_window=args.mtw_window,
        mtw_baseline=baseline,
        fallback_pmm=args.fallback_pmm,
        workers=args.workers,
    )
    paths = []
    stacked = result.stack.to_stacked()
    imp_path = os.path.join(args.out_dir, "imputations.csv")
    write_csv(stacked, imp_path)
    paths += [imp_path, sidecar_path(imp_path), copy_path(imp_path)]
    spec_path = os.path.join(args.out_dir, "impute_spec.json")
    _atomic_json(
        {"method": args.method, "seed": args.seed, **result.spec_json}, spec_path
    )
    paths.append(spec_path)
    if result.trace is not None:
        trace_path = os.path.join(args.out_dir, "trace.csv")
        _write_trace(trace_path, result.trace)
        paths.append(trace_path)
    if result.chain_stats is not None:
        stats_path = os.path.join(args.out_dir, "chain_stats.csv")
        _atomic_rows(
            stats_path,
            ["chain", "iteration", "column", "mean", "sd"],
            (
                (s.chain, s.iteration, s.column, _fmt(s.mean), _fmt(s.sd))
                for s in result.chain_stats
            ),
        )
        paths.append(stats_path)
    print(f"impute: method={args.method} m={result.stack.m} -> {imp_path}")
    _write_manifest(args.out_dir, "impute", args.seed, [args.input], paths, [], t0)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _fit_to_json(fit) -> dict:
    return {
        "params": [
            {"name": n, "estimate": b, "se": s} for n, b, s in fit.params()
        ],
        "var_components": {k: float(v) for k, v in fit.var_components.items()},
        "loglik": float(fit.loglik),
        "criterion": fit.criterion,
        "grouping": list(fit.grouping),
        "converged": bool(fit.converged),
        "boundary": list(fit.boundary),
        "n_obs": int(fit.n_obs),
    }


def cmd_analyze(args) -> int:
    from .formula import parse_formula
    from .stack import IMPUTATION_COL, ImputedStack
    from .table import available_case_filter

    t0 = time.time()
    _check_upstream(args.input)
    data = read_csv(args.input)
    formula = parse_formula(args.formula)
    os.makedirs(args.out_dir, exist_ok=True)
    if IMPUTATION_COL in data.col_names:
        stack = ImputedStack.from_stacked(data, args.input)
        datasets = stack.imputations
        if not datasets:
            raise BadConfig("stacked input holds no imputations")
    else:
        datasets = [data]
    paths = []
    n_bad = 0
    for i, d in enumerate(datasets, start=1):
        if args.aca:
            model_vars = [formula.response] + [t.column for t in formula.fixed]
            d = available_case_filter(d, model_vars)
        fit = fit_lmm(formula, d, criterion=args.criterion)
        n_bad += not fit.converged
        p = os.path.join(args.out_dir, f"fit_{i:04d}.json")
        _atomic_json({"formula": str(formula), **_fit_to_json(fit)}, p)
        paths.append(p)
    print(f"analyze: {len(datasets)} fit(s), {n_bad} non-converged")
    _write_manifest(args.out_dir, "analyze", None, [args.input], paths, [], t0)
    if args.strict and n_bad:
        return 4
    return 0


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------


class _JsonFit:
    def __init__(self, payload):
        self._params = [
            (p["name"], float(p["estimate"]), float(p["se"]))
            for p in payload["params"]
        ]
        self.var_components = {
            k: float(v) for k, v in payload["var_components"].items()
        }
        self.converged = bool(payload["converged"])

    def params(self):
        return self._params


def cmd_pool(args) -> int:
    t0 = time.time()
    files = sorted(glob.glob(os.path.join(args.fits, "fit_*.json"))) if os.path.isdir(
        args.fits
    ) else sorted(glob.glob(args.fits))
    if not files:
        raise BadConfig(f"no fit JSONs found under {args.fits!r}")
    _check_upstream(files[0])
    fits = []
    for f in files:
        with open(f) as fh:
            fits.append(_JsonFit(json.load(fh)))
    try:
        out = pool(fits, strict=args.strict)
    except TooFewImputations:
        if args.strict:
            print("pool: too few converged fits in strict mode", file=sys.stderr)
            return 4
        raise
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "pooled.csv")
    _atomic_rows(
        csv_path,
        ["parameter", "estimate", "se", "df", "fmi"],
        (
            (p.name, _fmt(p.estimate), _fmt(p.se), _fmt(p.df), _fmt(p.fmi))
            for p in out.params
        ),
    )
    json_path = os.path.join(args.out_dir, "pooled.json")
    _atomic_json(
        {
            "m": out.m,
            "n_nonconverged": out.n_nonconverged,
            "params": [
                {
                    "name": p.name,
                    "estimate": p.estimate,
                    "se": p.se,
                    "within": p.within,
                    "between": p.between,
                    "total": p.total,
                    "df": p.df if math.isfinite(p.df) else "inf",
                    "fmi": p.fmi,
                }
                for p in out.params
            ],
            "var_components": out.var_components,
        },
        json_path,
    )
    print(f"pool: m={out.m}, {out.n_nonconverged} non-converged fit(s)")
    _write_manifest(args.out_dir, "pool", None, files, [csv_path, json_path], [], t0)
    return 0


# ---------------------------------------------------------------------------
# diag
# ---------------------------------------------------------------------------


def _read_long_csv(path, n_fields):
    """Data rows of a ``trace.csv`` or ``chain_stats.csv``, each with the
    line it ends on. A row without ``n_fields`` fields, a ``csv`` error
    and bytes that are not UTF-8 raise ``BadConfig`` naming the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise BadConfig(f"{path}, line {line}: not utf-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = []
    try:
        next(reader, None)  # header
        for row in reader:
            if len(row) != n_fields:
                raise BadConfig(
                    f"{path}, line {reader.line_num}: {len(row)} fields, "
                    f"expected {n_fields}"
                )
            rows.append((reader.line_num, row))
    except csv.Error as e:
        raise BadConfig(f"{path}, line {reader.line_num}: {e}") from None
    return rows


def _parse_cell(path, line, token, kind):
    """``kind(token)`` (int or float), or ``BadConfig`` naming the line."""
    try:
        return kind(token)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise BadConfig(f"{path}, line {line}: {token!r} is not {what}") from None


def _write_series(path, series) -> None:
    """``parameter,iteration,value`` rows by name, then iteration, as
    ``csv.writer`` writes them: built like ``_write_trace``'s lines."""
    from .table import csv_fields

    names = sorted(series)
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write("parameter,iteration,value\r\n")
        for name, quoted in zip(names, csv_fields(names)):
            head = f"{quoted}," if name else ","  # "" is quoted only as a lone field
            fh.writelines(f"{head}{it},{_fmt(v)}\r\n" for it, v in sorted(series[name]))
    os.replace(tmp, path)


def cmd_diag(args) -> int:
    from .jm import autocorrs

    t0 = time.time()
    path = args.trace or args.chain_stats
    _check_upstream(path)
    series: dict[str, list[tuple[int, float]]] = {}
    if args.trace:
        for line, (it, name, value) in _read_long_csv(path, 3):
            series.setdefault(name, []).append((
                _parse_cell(path, line, it, int), _parse_cell(path, line, value, float)
            ))
    else:
        for line, (chain, it, col, mean, sd) in _read_long_csv(path, 5):
            it = _parse_cell(path, line, it, int)
            series.setdefault(f"{col}.mean.chain{chain}", []).append(
                (it, _parse_cell(path, line, mean, float))
            )
            series.setdefault(f"{col}.sd.chain{chain}", []).append(
                (it, _parse_cell(path, line, sd, float))
            )
    if args.params:
        missing = [p for p in args.params if p not in series]
        if missing:
            raise UnknownParam(f"parameters {missing} not present in {path}")
        series = {p: series[p] for p in args.params}
    os.makedirs(args.out_dir, exist_ok=True)
    series_path = os.path.join(args.out_dir, "diag_series.csv")
    _write_series(series_path, series)
    ac_path = os.path.join(args.out_dir, "diag_autocorr.csv")

    def ac_rows():
        for name, pts in sorted(series.items()):
            values = [v for _, v in sorted(pts)]
            lags = range(1, min(args.max_lag, len(values) - 1) + 1)
            try:
                acs = [_fmt(r) for r in autocorrs(values, lags)]
            except DegenerateSeries:
                acs = ["NA"] * len(lags)
            yield from ((name, lag, a) for lag, a in zip(lags, acs))

    _atomic_rows(ac_path, ["parameter", "lag", "autocorr"], ac_rows())
    print(f"diag: {len(series)} series -> {args.out_dir}")
    _write_manifest(args.out_dir, "diag", None, [path], [series_path, ac_path], [], t0)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from .methods import METHOD_NAMES

    p = argparse.ArgumentParser(
        prog="longmi",
        description="Multiple imputation for longitudinal and clustered data",
    )
    p.add_argument("--version", action="version", version=f"longmi {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("sim", help="generate the synthetic clustered cohort")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--config", help="JSON file overriding simulator fields")
    ps.add_argument("--out-dir", required=True)
    ps.set_defaults(fn=cmd_sim)

    pi = sub.add_parser("impute", help="run one imputation method")
    pi.add_argument("--input", required=True, help="observed long CSV")
    pi.add_argument("--method", required=True,
                    help=f"one of: {', '.join(METHOD_NAMES)} (jm-3l unavailable)")
    pi.add_argument("--m", type=int, default=5)
    pi.add_argument("--maxit", type=int, default=10)
    pi.add_argument("--nburn", type=int, default=1000)
    pi.add_argument("--nbetween", type=int, default=1000)
    pi.add_argument("--seed", type=int, default=1)
    pi.add_argument("--mtw-window", type=int, default=1)
    pi.add_argument("--mtw-baseline", nargs="*", metavar="COL=WAVE")
    pi.add_argument("--fallback-pmm", action="store_true",
                    help="fall back to pmm when a logistic imputer separates")
    pi.add_argument("--workers", type=int,
                    default=int(os.environ.get(WORKERS_ENV, "1")))
    pi.add_argument("--out-dir", required=True)
    pi.set_defaults(fn=cmd_impute)

    pa = sub.add_parser("analyze", help="fit the substantive mixed model")
    pa.add_argument("--input", required=True,
                    help="stacked imputations CSV or a single dataset CSV")
    pa.add_argument("--formula", required=True)
    pa.add_argument("--criterion", choices=("REML", "ML"), default="REML")
    pa.add_argument("--aca", action="store_true",
                    help="drop rows incomplete on the model variables")
    pa.add_argument("--strict", action="store_true",
                    help="exit 4 when any fit fails to converge")
    pa.add_argument("--out-dir", required=True)
    pa.set_defaults(fn=cmd_analyze)

    pp = sub.add_parser("pool", help="combine per-imputation fits")
    pp.add_argument("--fits", required=True, help="directory or glob of fit JSONs")
    pp.add_argument("--strict", action="store_true",
                    help="drop non-converged fits before pooling")
    pp.add_argument("--out-dir", required=True)
    pp.set_defaults(fn=cmd_pool)

    pd = sub.add_parser("diag", help="chain series and autocorrelations")
    src = pd.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="trace.csv from a jm run")
    src.add_argument("--chain-stats", help="chain_stats.csv from an fcs run")
    pd.add_argument("--params", nargs="*")
    pd.add_argument("--max-lag", type=int, default=20)
    pd.add_argument("--out-dir", required=True)
    pd.set_defaults(fn=cmd_diag)
    return p


_CONFIG_ERRORS = (
    BadConfig,
    ParseError,
    UnknownColumn,
    UnsupportedMethod,
    TooFewImputations,
    MisalignedParams,
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CONFIG_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LongmiError as e:
        print(f"numeric failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
