"""Catalog of the named imputation pipelines.

Each entry turns an observed long dataset into a ready-to-run
configuration: reshapes to wide where the method wants it, expands
cluster indicator columns for the fixed-cluster variants, builds the
method vector / predictor matrix or joint-model spec, runs it, and
reshapes the completed datasets back to long so every method hands the
analysis step the same layout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedMethod
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
    ColumnSpec,
    Dataset,
    ReshapeMap,
    dummy_expand,
    reshape_long_to_wide,
    reshape_wide_to_long,
)

METHOD_NAMES = (
    "jm-1l-wide",
    "fcs-1l-wide",
    "fcs-1l-wide-mtw",
    "jm-2l",
    "fcs-2l",
    "jm-1l-di-wide",
    "fcs-1l-di-wide",
    "jm-2l-wide",
    "fcs-2l-wide",
    "jm-2l-di",
    "fcs-2l-di",
    "fcs-3l",
)

UNAVAILABLE = {
    "jm-3l": "no random-effects three-level joint model ships in this package; "
    "use fcs-3l or jm-2l-wide instead",
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
        raise ValueError("detect_map expects a long dataset")
    unit = d.unit_col()
    cluster = next((c.name for c in d.columns if c.role == "cluster-id"), None)
    time = d.time_col()
    if time is None:
        raise ValueError("long dataset needs a time column")
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


def _wide_analysis_cols(w: Dataset, dm: DataMap) -> list[str]:
    skip = {dm.unit}
    if dm.cluster:
        skip.add(dm.cluster)
    return [c.name for c in w.columns if c.name not in skip]


def _default_wide_method(kind: str, multilevel: bool) -> str:
    if multilevel:
        return {"continuous": "2l.pan", "binary": "2l.latent"}.get(kind, "2l.pmm")
    return {"continuous": "norm", "binary": "logreg"}.get(kind, "polr")


def _restack_long(
    stack: ImputedStack, dm: DataMap, observed_long: Dataset
) -> ImputedStack:
    """Reshape wide imputations back to the original long layout."""
    out = []
    for imp in stack.imputations:
        long_imp = reshape_wide_to_long(imp, dm.reshape)
        out.append(_align_like(long_imp, observed_long))
    return ImputedStack(observed_long, out)


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
    if method not in METHOD_NAMES:
        raise UnsupportedMethod(
            f"unknown method {method!r}; expected one of {', '.join(METHOD_NAMES)}"
        )
    dm = detect_map(observed, time_varying)
    if method.endswith("-di") or "-di-" in method:
        if dm.cluster is None:
            raise ValueError(f"{method} needs a cluster-id column")
    builder = _BUILDERS[method]
    return builder(rng, observed, dm, m, maxit, nburn, nbetween,
                   mtw_window, mtw_baseline or {}, fallback_pmm, workers)


# -- wide JM family -----------------------------------------------------------


def _jm_wide(rng, observed, dm, m, nburn, nbetween, dummy_cluster, cluster_re,
             cov_mode="common"):
    wide = reshape_long_to_wide(observed, dm.reshape)
    base_wide = wide
    if dummy_cluster:
        wide = dummy_expand(wide, dm.cluster, drop_first=True)
    cols = _wide_analysis_cols(wide, dm)
    y_cols = _incomplete(wide, cols)
    x_cols = _complete(wide, cols)
    if not dummy_cluster and dm.cluster:
        x_cols = [c for c in x_cols if c != dm.cluster]
        x_cols = [c for c in x_cols if not c.startswith(f"{dm.cluster}_")]
    spec = JmSpec(
        y_cols=tuple(y_cols),
        x_cols=tuple(x_cols),
        clus=dm.cluster if cluster_re else None,
        cov_mode=cov_mode,
        nburn=nburn,
        nbetween=nbetween,
        nimp=m,
    )
    stack, trace = run_jm(rng, spec, wide)
    if dummy_cluster:
        stack = _reattach(stack, base_wide, dm.cluster)
    stack = _restack_long(stack, dm, observed)
    return ImputeResult(stack, trace, None, _jm_spec_json("jm", spec))


def _jm_spec_json(kind, spec: JmSpec):
    return {
        "family": kind,
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


def _build_jm_1l_wide(rng, observed, dm, m, maxit, nburn, nbetween, w, bl, fb, workers=1):
    return _jm_wide(rng, observed, dm, m, nburn, nbetween,
                    dummy_cluster=False, cluster_re=False)


def _build_jm_1l_di_wide(rng, observed, dm, m, maxit, nburn, nbetween, w, bl, fb, workers=1):
    return _jm_wide(rng, observed, dm, m, nburn, nbetween,
                    dummy_cluster=True, cluster_re=False)


def _build_jm_2l_wide(rng, observed, dm, m, maxit, nburn, nbetween, w, bl, fb, workers=1):
    if dm.cluster is None:
        raise ValueError("jm-2l-wide needs a cluster-id column")
    return _jm_wide(rng, observed, dm, m, nburn, nbetween,
                    dummy_cluster=False, cluster_re=True,
                    cov_mode="cluster-specific")


# -- long JM family -----------------------------------------------------------


def _jm_long(rng, observed, dm, m, nburn, nbetween, dummy_cluster, cov_mode):
    base = observed
    if dummy_cluster:
        base = dummy_expand(observed, dm.cluster, drop_first=True)
    varying, fixed = dm.time_varying, dm.time_fixed
    y_cols = _incomplete(base, varying)
    y2_cols = _incomplete(base, fixed)
    x_cols = _complete(base, varying) + [dm.time] + _complete(base, fixed)
    x2_cols = _complete(base, fixed)
    if dummy_cluster:
        dummies = [c.name for c in base.columns
                   if c.name.startswith(f"{dm.cluster}_")]
        x_cols += dummies
        x2_cols += dummies
    spec = JmSpec(
        y_cols=tuple(y_cols),
        x_cols=tuple(x_cols),
        z_cols=(dm.time,),
        y2_cols=tuple(y2_cols),
        x2_cols=tuple(x2_cols),
        clus=dm.unit,
        cov_mode=cov_mode,
        nburn=nburn,
        nbetween=nbetween,
        nimp=m,
    )
    stack, trace = run_jm(rng, spec, base)
    if dummy_cluster:
        stack = _reattach(stack, observed, dm.cluster)
        stack = ImputedStack(
            observed, [_align_like(i, observed) for i in stack.imputations]
        )
    return ImputeResult(stack, trace, None, _jm_spec_json("jm", spec))


def _build_jm_2l(rng, observed, dm, m, maxit, nburn, nbetween, w, bl, fb, workers=1):
    return _jm_long(rng, observed, dm, m, nburn, nbetween,
                    dummy_cluster=False, cov_mode="common")


def _build_jm_2l_di(rng, observed, dm, m, maxit, nburn, nbetween, w, bl, fb, workers=1):
    return _jm_long(rng, observed, dm, m, nburn, nbetween,
                    dummy_cluster=True, cov_mode="cluster-specific")


# -- wide FCS family ----------------------------------------------------------


def _fcs_wide(rng, observed, dm, m, maxit, fb, pred_builder, multilevel,
              dummy_cluster=False, workers=1):
    wide = reshape_long_to_wide(observed, dm.reshape)
    base_wide = wide
    if dummy_cluster:
        wide = dummy_expand(wide, dm.cluster, drop_first=True)
    methods = MethodVector(
        {
            n: _default_wide_method(wide.spec(n).kind, multilevel)
            for n in _incomplete(wide, _wide_analysis_cols(wide, dm))
        }
    )
    pred = pred_builder(wide)
    stack, stats = run_fcs(rng, wide, methods, pred, None, maxit, m, fb, workers)
    if dummy_cluster:
        stack = _reattach(stack, base_wide, dm.cluster)
    stack = _restack_long(stack, dm, observed)
    return ImputeResult(
        stack, None, stats, _fcs_spec_json(methods, pred, None, maxit, m)
    )


def _build_fcs_1l_wide(rng, observed, dm, m, maxit, nburn, nbetween, w, bl, fb, workers=1):
    def build(wide):
        pred = default_predictor_matrix(wide)
        pred.set_column(dm.unit, 0)
        if dm.cluster:
            pred.set_column(dm.cluster, 0)
        return pred

    return _fcs_wide(rng, observed, dm, m, maxit, fb, build, multilevel=False,
                     workers=workers)


def _build_fcs_1l_wide_mtw(rng, observed, dm, m, maxit, nburn, nbetween,
                           window, baseline, fb, workers=1):
    def build(wide):
        pred = mtw_predictor_matrix(wide, dm.reshape, window, baseline)
        pred.set_column(dm.unit, 0)
        if dm.cluster:
            pred.set_column(dm.cluster, 0)
        return pred

    return _fcs_wide(rng, observed, dm, m, maxit, fb, build, multilevel=False,
                     workers=workers)


def _build_fcs_1l_di_wide(rng, observed, dm, m, maxit, nburn, nbetween, w, bl, fb, workers=1):
    def build(wide):
        pred = default_predictor_matrix(wide)
        pred.set_column(dm.unit, 0)
        return pred

    return _fcs_wide(rng, observed, dm, m, maxit, fb, build, multilevel=False,
                     dummy_cluster=True, workers=workers)


def _build_fcs_2l_wide(rng, observed, dm, m, maxit, nburn, nbetween, w, bl, fb, workers=1):
    if dm.cluster is None:
        raise ValueError("fcs-2l-wide needs a cluster-id column")

    def build(wide):
        pred = default_predictor_matrix(wide)
        pred.set_column(dm.unit, 0)
        pred.set_column(dm.cluster, -2)
        return pred

    return _fcs_wide(rng, observed, dm, m, maxit, fb, build, multilevel=True,
                     workers=workers)


# -- long FCS family ----------------------------------------------------------


def _fcs_2l_config(d: Dataset, dm: DataMap):
    methods = {}
    for n in _incomplete(d, dm.time_varying):
        kind = d.spec(n).kind
        methods[n] = {"continuous": "2l.pan", "binary": "2l.latent"}.get(
            kind, "2l.pmm"
        )
    for n in _incomplete(d, dm.time_fixed):
        kind = d.spec(n).kind
        methods[n] = "2lonly.norm" if kind == "continuous" else "2lonly.pmm"
    mv = MethodVector(methods)
    pred = default_predictor_matrix(d)
    if dm.cluster:
        pred.set_column(dm.cluster, 0)
    pred.set_column(dm.unit, -2)
    tv_incomplete = _incomplete(d, dm.time_varying)
    tf_incomplete = _incomplete(d, dm.time_fixed)
    if tf_incomplete:
        pred.set(tf_incomplete, dm.time, 0)
    if tv_incomplete:
        pred.set(tv_incomplete, dm.time, 2)
        for row in tv_incomplete:
            others = [c for c in dm.time_varying if c != row]
            if others:
                pred.set(row, others, 3)
    return mv, pred


def _build_fcs_2l(rng, observed, dm, m, maxit, nburn, nbetween, w, bl, fb, workers=1):
    mv, pred = _fcs_2l_config(observed, dm)
    stack, stats = run_fcs(rng, observed, mv, pred, None, maxit, m, fb, workers)
    return ImputeResult(
        stack, None, stats, _fcs_spec_json(mv, pred, None, maxit, m)
    )


def _build_fcs_2l_di(rng, observed, dm, m, maxit, nburn, nbetween, w, bl, fb, workers=1):
    warnings.warn(
        "fcs-2l-di often fails to converge on sparse data; "
        "prefer fcs-3l or jm-2l-wide",
        stacklevel=2,
    )
    base = dummy_expand(observed, dm.cluster, drop_first=True)
    dm_di = detect_map(base, time_varying=dm.time_varying)
    mv, pred = _fcs_2l_config(base, dm_di)
    stack, stats = run_fcs(rng, base, mv, pred, None, maxit, m, fb, workers)
    stack = _reattach(stack, observed, dm.cluster)
    stack = ImputedStack(
        observed, [_align_like(i, observed) for i in stack.imputations]
    )
    return ImputeResult(
        stack, None, stats, _fcs_spec_json(mv, pred, None, maxit, m)
    )


def _build_fcs_3l(rng, observed, dm, m, maxit, nburn, nbetween, w, bl, fb, workers=1):
    if dm.cluster is None:
        raise ValueError("fcs-3l needs a cluster-id column")
    methods = {}
    level_of = {}
    clusters = {}
    for n in _incomplete(observed, dm.time_varying):
        kind = observed.spec(n).kind
        methods[n] = "ml.lmer.continuous" if kind == "continuous" else "ml.lmer.pmm"
        level_of[n] = ""
        clusters[n] = (dm.unit, dm.cluster)
    for n in _incomplete(observed, dm.time_fixed):
        kind = observed.spec(n).kind
        methods[n] = "ml.lmer.continuous" if kind == "continuous" else "ml.lmer.pmm"
        level_of[n] = dm.unit
        clusters[n] = (dm.cluster,)
    mv = MethodVector(methods)
    levels = LevelsSpec(level_of, clusters)
    pred = default_predictor_matrix(observed)
    pred.set_column(dm.unit, 0)
    pred.set_column(dm.cluster, 0)
    tf_incomplete = _incomplete(observed, dm.time_fixed)
    if tf_incomplete:
        pred.set(tf_incomplete, dm.time, 0)
    stack, stats = run_fcs(rng, observed, mv, pred, levels, maxit, m, fb, workers)
    return ImputeResult(
        stack, None, stats, _fcs_spec_json(mv, pred, levels, maxit, m)
    )


_BUILDERS = {
    "jm-1l-wide": _build_jm_1l_wide,
    "fcs-1l-wide": _build_fcs_1l_wide,
    "fcs-1l-wide-mtw": _build_fcs_1l_wide_mtw,
    "jm-2l": _build_jm_2l,
    "fcs-2l": _build_fcs_2l,
    "jm-1l-di-wide": _build_jm_1l_di_wide,
    "fcs-1l-di-wide": _build_fcs_1l_di_wide,
    "jm-2l-wide": _build_jm_2l_wide,
    "fcs-2l-wide": _build_fcs_2l_wide,
    "jm-2l-di": _build_jm_2l_di,
    "fcs-2l-di": _build_fcs_2l_di,
    "fcs-3l": _build_fcs_3l,
}
