"""Catalog of the named imputation pipelines.

The twelve methods differ in three choices, written down once in
``CATALOG``: the engine (joint model ``jm`` or chained equations
``fcs``), the layout it runs on (wide: one row per unit; long: one row
per unit and wave), and how the higher-level cluster enters the model
(``none``: ignored; ``dummy``: indicator columns; ``random``: a random
effect; ``nested``: nested random intercepts). ``build_and_run``
interprets a row: it reshapes to wide and expands cluster indicators
where the row says so, builds the joint-model spec or the FCS method
vector, predictor matrix and levels, runs the engine, and returns the
completed datasets in the observed long layout, so every method hands
the analysis step the same table.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, UnsupportedMethod
from .fcs import (
    LevelsSpec,
    MethodVector,
    PredictorMatrix,
    default_predictor_matrix,
    mtw_predictor_matrix,
    run_fcs,
)
from .jm import ChainTrace, JmSpec, run_jm
from .rng import RngStream
from .stack import ImputedStack
from .table import (
    Dataset,
    ReshapeMap,
    dummy_expand,
    reshape_long_to_wide,
    reshape_wide_to_long,
)


@dataclass(frozen=True)
class Method:
    """One pipeline: ``engine`` is "jm" or "fcs"; ``wide`` runs on one row
    per unit; ``cluster`` is "none", "dummy", "random" or "nested";
    ``cov_mode`` is the joint model's residual covariance mode."""

    engine: str
    wide: bool
    cluster: str
    cov_mode: str = "common"


CATALOG = {
    "jm-1l-wide": Method("jm", True, "none"),
    "fcs-1l-wide": Method("fcs", True, "none"),
    "fcs-1l-wide-mtw": Method("fcs", True, "none"),
    "jm-2l": Method("jm", False, "none"),
    "fcs-2l": Method("fcs", False, "none"),
    "jm-1l-di-wide": Method("jm", True, "dummy"),
    "fcs-1l-di-wide": Method("fcs", True, "dummy"),
    "jm-2l-wide": Method("jm", True, "random", "cluster-specific"),
    "fcs-2l-wide": Method("fcs", True, "random"),
    "jm-2l-di": Method("jm", False, "dummy", "cluster-specific"),
    "fcs-2l-di": Method("fcs", False, "dummy"),
    "fcs-3l": Method("fcs", False, "nested"),
}
METHOD_NAMES = tuple(CATALOG)

UNAVAILABLE = {
    "jm-3l": "no random-effects three-level joint model ships in this package; "
    "use fcs-3l or jm-2l-wide instead",
}

# default univariate FCS method by family and column kind; any kind not
# listed (categorical, and binary where no binary entry) takes "other"
_UNIVARIATE = {
    "1l": {"continuous": "norm", "binary": "logreg", "other": "polr"},
    "2l": {"continuous": "2l.pan", "binary": "2l.latent", "other": "2l.pmm"},
    "2lonly": {"continuous": "2lonly.norm", "other": "2lonly.pmm"},
    "ml": {"continuous": "ml.lmer.continuous", "other": "ml.lmer.pmm"},
}


@dataclass
class DataMap:
    """Roles and time structure detected from a long dataset."""

    unit: str
    cluster: str | None
    time: str | None
    time_varying: list[str]
    time_fixed: list[str]
    reshape: ReshapeMap


def detect_map(d: Dataset, time_varying: list[str] | None = None) -> DataMap:
    """Classify analysis/auxiliary columns as time-varying or fixed.

    A column is time-varying when any unit shows more than one distinct
    observed value across its rows; pass ``time_varying`` to override.
    """
    if d.shape_kind != "long":
        raise BadConfig("imputation needs a long dataset, got a wide one")
    unit = d.unit_col()
    cluster = next((c.name for c in d.columns if c.role == "cluster-id"), None)
    time = d.time_col()
    if time is None:
        raise BadConfig("long dataset needs a time column")
    # rows sorted by unit; ``starts`` opens each unit's run
    order = np.argsort(d.column(unit), kind="stable")
    _, starts = np.unique(d.column(unit)[order], return_index=True)
    varying, fixed = [], []
    for c in d.columns:
        if c.role not in ("analysis", "auxiliary"):
            continue
        if time_varying is not None:
            (varying if c.name in time_varying else fixed).append(c.name)
            continue
        # a unit varies when its largest observed value exceeds its smallest
        x = d.column(c.name)[order]
        is_varying = bool(
            (np.fmax.reduceat(x, starts) > np.fmin.reduceat(x, starts)).any()
        )
        (varying if is_varying else fixed).append(c.name)
    times = tuple(int(t) for t in np.unique(d.column(time)))
    rmap = ReshapeMap(tuple(varying), times, tuple(fixed), time_col=time)
    return DataMap(unit, cluster, time, varying, fixed, rmap)


def _carry_fixed(d: Dataset, dm: DataMap) -> Dataset:
    """Fill each time-fixed column's observed value into the unit's rows
    where it is missing, so the long two-level models see one value per
    unit and the wide reshape (which keeps each unit's last row) keeps
    it. A time-fixed column with two observed values in one unit is a
    ``BadConfig``. Returns ``d`` itself when nothing is filled.
    """
    units, code = np.unique(d.column(dm.unit), return_inverse=True)
    order = np.argsort(code, kind="stable")
    starts = np.searchsorted(code[order], np.arange(len(units)))
    values, mask = d.values.copy(), d.mask.copy()
    for name in dm.time_fixed:
        j = d.col_index(name)
        x = values[order, j]
        hi, lo = np.fmax.reduceat(x, starts), np.fmin.reduceat(x, starts)
        if (hi > lo).any():
            raise BadConfig(
                f"time-fixed column {name!r} takes two values within "
                f"{dm.unit!r} {units[np.argmax(hi > lo)]:.15g}"
            )
        fill = mask[:, j] & ~np.isnan(hi[code])
        values[fill, j] = hi[code[fill]]
        mask[fill, j] = False
    if np.array_equal(mask, d.mask):
        return d
    return Dataset(d.columns, values, mask, shape_kind="long", validate=False)


@dataclass
class ImputeResult:
    stack: ImputedStack  # long layout, analysis-ready
    trace: ChainTrace | None
    chain_stats: list | None
    spec_json: dict


def _incomplete(d: Dataset, names) -> list[str]:
    return [n for n in names if d.column_mask(n).any()]


def _complete(d: Dataset, names) -> list[str]:
    return [n for n in names if not d.column_mask(n).any()]


def _univariate(family: str, d: Dataset, names) -> dict[str, str]:
    table = _UNIVARIATE[family]
    return {n: table.get(d.spec(n).kind, table["other"]) for n in names}


def _align_like(d: Dataset, template: Dataset) -> Dataset:
    """Reorder rows/columns of a completed long dataset to the template."""
    key_t = np.column_stack(
        [template.column(template.unit_col()), template.column(template.time_col())]
    )
    key_d = np.column_stack([d.column(d.unit_col()), d.column(d.time_col())])
    order_t = np.lexsort((key_t[:, 1], key_t[:, 0]))
    order_d = np.lexsort((key_d[:, 1], key_d[:, 0]))
    row_map = np.empty(len(key_t), dtype=int)
    row_map[order_t] = order_d
    cols = [d.col_index(c.name) for c in template.columns]
    values = d.values[row_map][:, cols]
    return Dataset(
        template.columns, values, np.zeros_like(template.mask),
        shape_kind="long", validate=False,
    )


def _reattach(stack: ImputedStack, base: Dataset, col: str) -> ImputedStack:
    """Put a dropped complete column (e.g. the cluster id) back, replacing
    its indicator columns."""
    j = base.col_index(col)
    spec = base.columns[j]
    vals = base.column(col)
    out = []
    for imp in stack.imputations:
        keep = [c.name for c in imp.columns if not c.name.startswith(f"{col}_")]
        idx = [imp.col_index(n) for n in keep]
        cols = [imp.columns[i] for i in idx]
        values = imp.values[:, idx]
        cols.insert(j, spec)
        values = np.insert(values, j, vals, axis=1)
        out.append(
            Dataset(cols, values, np.zeros_like(values, dtype=bool),
                    shape_kind=imp.shape_kind, validate=False)
        )
    return ImputedStack(base, out)


def build_and_run(
    rng: RngStream,
    method: str,
    observed: Dataset,
    m: int = 5,
    maxit: int = 10,
    nburn: int = 1000,
    nbetween: int = 100,
    mtw_window: int = 1,
    mtw_baseline: dict[str, int] | None = None,
    time_varying: list[str] | None = None,
    fallback_pmm: bool = False,
    workers: int = 1,
) -> ImputeResult:
    """Run one named pipeline on an observed long dataset."""
    if method in UNAVAILABLE:
        raise UnsupportedMethod(f"{method}: {UNAVAILABLE[method]}")
    if method not in CATALOG:
        raise UnsupportedMethod(
            f"unknown method {method!r}; expected one of {', '.join(METHOD_NAMES)}"
        )
    row = CATALOG[method]
    dm = detect_map(observed, time_varying)
    if row.cluster != "none" and dm.cluster is None:
        raise BadConfig(f"{method} needs a cluster-id column")
    if method == "fcs-2l-di":
        warnings.warn(
            "fcs-2l-di often fails to converge on sparse data; "
            "prefer fcs-3l or jm-2l-wide",
            stacklevel=2,
        )
    filled = _carry_fixed(observed, dm)
    base = reshape_long_to_wide(filled, dm.reshape) if row.wide else filled
    d = base
    if row.cluster == "dummy":
        d = dummy_expand(base, dm.cluster, drop_first=True)
    if row.engine == "jm":
        spec = _jm_spec(row, d, dm, m, nburn, nbetween)
        stack, trace = run_jm(rng, spec, d)
        stats, spec_json = None, _jm_spec_json(spec)
    else:
        mv, pred, levels = _fcs_config(method, row, d, dm, mtw_window, mtw_baseline)
        stack, stats = run_fcs(rng, d, mv, pred, levels, maxit, m, fallback_pmm,
                               workers)
        trace, spec_json = None, _fcs_spec_json(mv, pred, levels, maxit, m)
    if row.cluster == "dummy":
        stack = _reattach(stack, base, dm.cluster)
    if d is not observed:
        imps = (reshape_wide_to_long(i, dm.reshape) if row.wide else i
                for i in stack.imputations)
        stack = ImputedStack(observed, [_align_like(i, observed) for i in imps])
    return ImputeResult(stack, trace, stats, spec_json)


def _jm_spec(row: Method, d: Dataset, dm: DataMap, m, nburn, nbetween) -> JmSpec:
    """Wide: every incomplete column is a response; long: time-varying
    columns are level-1 responses and time-fixed ones level-2 responses
    within the unit, with a random time slope."""
    if row.wide:
        cols = [c.name for c in d.columns if c.name not in (dm.unit, dm.cluster)]
        return JmSpec(
            y_cols=_incomplete(d, cols),
            x_cols=_complete(d, cols),
            clus=dm.cluster if row.cluster == "random" else None,
            cov_mode=row.cov_mode, nburn=nburn, nbetween=nbetween, nimp=m,
        )
    x2_cols = _complete(d, dm.time_fixed)
    if row.cluster == "dummy":
        x2_cols += [n for n in d.col_names if n.startswith(f"{dm.cluster}_")]
    return JmSpec(
        y_cols=_incomplete(d, dm.time_varying),
        x_cols=_complete(d, dm.time_varying) + [dm.time] + x2_cols,
        z_cols=(dm.time,),
        y2_cols=_incomplete(d, dm.time_fixed),
        x2_cols=x2_cols,
        clus=dm.unit,
        cov_mode=row.cov_mode, nburn=nburn, nbetween=nbetween, nimp=m,
    )


def _fcs_config(method, row: Method, d: Dataset, dm: DataMap, window, baseline):
    """Method vector, predictor matrix and levels for one FCS row."""
    if method == "fcs-1l-wide-mtw":
        pred = mtw_predictor_matrix(d, dm.reshape, window, baseline or {})
    else:
        pred = default_predictor_matrix(d)
    if dm.cluster in d.col_names:
        pred.set_column(dm.cluster, -2 if row.cluster == "random" else 0)
    if row.wide:
        cols = [c.name for c in d.columns if c.name not in (dm.unit, dm.cluster)]
        family = "2l" if row.cluster == "random" else "1l"
        pred.set_column(dm.unit, 0)
        return MethodVector(_univariate(family, d, _incomplete(d, cols))), pred, None
    tv = _incomplete(d, dm.time_varying)
    tf = _incomplete(d, dm.time_fixed)
    levels = None
    if row.cluster == "nested":
        methods = _univariate("ml", d, tv + tf)
        levels = LevelsSpec(
            {**{n: "" for n in tv}, **{n: dm.unit for n in tf}},
            {**{n: (dm.unit, dm.cluster) for n in tv},
             **{n: (dm.cluster,) for n in tf}},
        )
        pred.set_column(dm.unit, 0)
    else:
        methods = {**_univariate("2l", d, tv), **_univariate("2lonly", d, tf)}
        pred.set_column(dm.unit, -2)
        pred.set(tv, dm.time, 2)
        for n in tv:
            pred.set(n, [c for c in dm.time_varying if c != n], 3)
    pred.set(tf, dm.time, 0)
    return MethodVector(methods), pred, levels


def _jm_spec_json(spec: JmSpec):
    return {
        "family": "jm",
        "y_cols": list(spec.y_cols),
        "x_cols": list(spec.x_cols),
        "z_cols": list(spec.z_cols),
        "y2_cols": list(spec.y2_cols),
        "x2_cols": list(spec.x2_cols),
        "clus": spec.clus,
        "cov_mode": spec.cov_mode,
        "nburn": spec.nburn,
        "nbetween": spec.nbetween,
        "nimp": spec.nimp,
    }


def _fcs_spec_json(methods: MethodVector, pred: PredictorMatrix,
                   levels: LevelsSpec | None, maxit, m):
    return {
        "family": "fcs",
        "methods": dict(methods.methods),
        "predictor_matrix": {
            r: {c: int(pred.codes[i, j]) for j, c in enumerate(pred.names)
                if pred.codes[i, j] != 0}
            for i, r in enumerate(pred.names)
        },
        "levels": (
            {
                "level_of": dict(levels.level_of),
                "clusters": {k: list(v) for k, v in levels.clusters.items()},
            }
            if levels
            else None
        ),
        "maxit": maxit,
        "m": m,
    }
