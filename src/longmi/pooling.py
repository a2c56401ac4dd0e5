"""Combining per-imputation fits into one inference.

Pooled estimate is the mean of the completed-data estimates; total
variance adds the between-imputation spread with the classical
(1 + 1/m) correction. Variance components are pooled as arithmetic
means of the point estimates (no between-imputation variance is
attached to them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MisalignedParams, TooFewImputations


@dataclass(frozen=True)
class PooledParam:
    name: str
    estimate: float
    within: float
    between: float
    total: float
    se: float
    df: float
    fmi: float


@dataclass
class PooledResult:
    params: list[PooledParam]
    var_components: dict[str, float]
    m: int
    n_nonconverged: int

    def __getitem__(self, name: str) -> PooledParam:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)


def pool(fits, strict: bool = False) -> PooledResult:
    """Rubin-combine aligned fits (each exposing ``params()``,
    ``var_components`` and ``converged``).

    With ``strict`` the non-converged fits are dropped before pooling;
    otherwise they are included and only counted.
    """
    fits = list(fits)
    n_nonconverged = sum(not f.converged for f in fits)
    if strict:
        fits = [f for f in fits if f.converged]
    m = len(fits)
    if m < 2:
        raise TooFewImputations(f"pooling needs m >= 2 fits, got {m}")
    name_lists = [tuple(n for n, _, _ in f.params()) for f in fits]
    if len(set(name_lists)) != 1:
        raise MisalignedParams("fits carry different parameter name lists")
    names = name_lists[0]

    est = np.array([[b for _, b, _ in f.params()] for f in fits])
    ses = np.array([[s for _, _, s in f.params()] for f in fits])
    qbar = est.mean(axis=0)
    within = (ses**2).mean(axis=0)
    between = est.var(axis=0, ddof=1)
    total = within + (1.0 + 1.0 / m) * between

    params = []
    for j, name in enumerate(names):
        b = float(between[j])
        w = float(within[j])
        t = float(total[j])
        if b <= 0.0:
            df = math.inf
            t = w
            fmi = 0.0
        else:
            r = (1.0 + 1.0 / m) * b
            try:
                df = (m - 1) * (1.0 + w / r) ** 2
            except OverflowError:
                df = math.inf
            fmi = r / t
        params.append(
            PooledParam(name, float(qbar[j]), w, b, t, math.sqrt(t), df, fmi)
        )

    comp_names = list(fits[0].var_components)
    if any(list(f.var_components) != comp_names for f in fits):
        raise MisalignedParams("fits carry different variance-component lists")
    comps = {
        k: float(np.mean([f.var_components[k] for f in fits])) for k in comp_names
    }
    return PooledResult(params, comps, m, n_nonconverged)
