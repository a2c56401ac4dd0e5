"""Chained-equations imputation.

Each incomplete column gets a univariate conditional model (the method
vector) fed by the predictors its row of the predictor matrix selects.
Chains initialize missing cells from the observed margins, then cycle
through the incomplete columns for a fixed number of iterations; the
last completed dataset of each chain is one imputation.

Predictor-matrix codes: 0 excluded, 1 fixed effect, 2 fixed effect
plus random slope, 3 fixed effect plus its cluster mean, -2 the
cluster grouping variable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChainFailure,
    MalformedWideName,
    PerfectSeparation,
    SingularFit,
    TooFewDonors,
)
from .fitters import (
    fit_linear_and_draw,
    fit_logistic,
    fit_polr,
    polr_category_probs,
)
from .rng import (
    RngStream,
    chol,
    chol_inverse,
    expit,
    group_sums,
    precision_draw,
    sym,
    trunc_normal_array,
    wishart_precision_draw,
)
from .stack import ImputedStack
from .table import Dataset, ReshapeMap

ROW_METHODS = ("norm", "logreg", "polr", "pmm")
SLOPE_METHODS = ("2l.pan", "2l.latent", "2l.pmm")
ONLY_METHODS = ("2lonly.norm", "2lonly.pmm")
NESTED_METHODS = ("ml.lmer.continuous", "ml.lmer.pmm")
ALL_METHODS = ("none",) + ROW_METHODS + SLOPE_METHODS + ONLY_METHODS + NESTED_METHODS

PMM_DONORS = 5
_FIRST_VISIT_SWEEPS = 15
_LATER_VISIT_SWEEPS = 5


# ---------------------------------------------------------------------------
# specification pieces
# ---------------------------------------------------------------------------


class MethodVector:
    """Column -> univariate method mapping with kind validation."""

    def __init__(self, methods: dict[str, str]):
        self.methods = dict(methods)
        for col, m in self.methods.items():
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r} for column {col!r}")

    def __getitem__(self, col: str) -> str:
        return self.methods.get(col, "none")

    def validate(self, d: Dataset):
        for col, m in self.methods.items():
            sp = d.spec(col)
            incomplete = d.column_mask(col).any()
            if m == "none":
                if incomplete:
                    raise ValueError(f"incomplete column {col!r} needs a method")
                continue
            if not incomplete:
                raise ValueError(f"complete column {col!r} must map to 'none'")
            if m in ("logreg", "2l.latent") and sp.kind != "binary":
                raise ValueError(f"{m} requires a binary column, got {col!r}")
            if m == "polr" and sp.kind not in ("categorical", "binary"):
                raise ValueError(f"polr requires a discrete column, got {col!r}")
            if m in ("norm", "2l.pan", "2lonly.norm", "ml.lmer.continuous") and (
                sp.kind != "continuous"
            ):
                raise ValueError(f"{m} requires a continuous column, got {col!r}")

    def targets(self, d: Dataset) -> list[str]:
        return [c.name for c in d.columns if self[c.name] != "none"]


class PredictorMatrix:
    """Square integer code matrix indexed by column name."""

    def __init__(self, names, codes: np.ndarray | None = None):
        self.names = list(names)
        k = len(self.names)
        self.codes = (
            np.zeros((k, k), dtype=int) if codes is None else np.asarray(codes, int)
        )
        if self.codes.shape != (k, k):
            raise ValueError("codes must be square over the column names")
        self._idx = {n: i for i, n in enumerate(self.names)}
        self.validate()

    def validate(self):
        bad = set(np.unique(self.codes)) - {-2, 0, 1, 2, 3}
        if bad:
            raise ValueError(f"illegal predictor codes {sorted(bad)}")
        if np.diag(self.codes).any():
            raise ValueError("diagonal must be zero")
        if ((self.codes == -2).sum(axis=1) > 1).any():
            raise ValueError("at most one cluster variable (-2) per row")

    def get(self, row: str, col: str) -> int:
        return int(self.codes[self._idx[row], self._idx[col]])

    def set(self, rows, cols, code: int):
        rows = [rows] if isinstance(rows, str) else rows
        cols = [cols] if isinstance(cols, str) else cols
        for r in rows:
            for c in cols:
                if r == c:
                    continue
                self.codes[self._idx[r], self._idx[c]] = code
        self.validate()

    def set_column(self, cols, code: int):
        self.set(self.names, cols, code)

    def row(self, name: str) -> dict[str, int]:
        i = self._idx[name]
        return {c: int(self.codes[i, j]) for j, c in enumerate(self.names)}

    def copy(self) -> "PredictorMatrix":
        return PredictorMatrix(self.names, self.codes.copy())

    def __eq__(self, other):
        return (
            isinstance(other, PredictorMatrix)
            and self.names == other.names
            and np.array_equal(self.codes, other.codes)
        )


def default_predictor_matrix(d: Dataset) -> PredictorMatrix:
    """Everything predicts everything: ones off the diagonal."""
    k = len(d.columns)
    codes = np.ones((k, k), dtype=int) - np.eye(k, dtype=int)
    return PredictorMatrix([c.name for c in d.columns], codes)


def mtw_predictor_matrix(
    d: Dataset,
    m: ReshapeMap,
    window: int,
    baseline_waves: dict[str, int] | None = None,
) -> PredictorMatrix:
    """Moving-time-window matrix for wide data.

    A wave-t row keeps a wave-s predictor only when the two waves are
    within ``window`` positions of each other in the wave list; columns
    without a wave (time-fixed) are untouched. ``baseline_waves``
    assigns wave positions to baseline measures whose names carry no
    time suffix.
    """
    baseline_waves = baseline_waves or {}
    waves = sorted(set(m.times) | set(baseline_waves.values()))
    pos = {t: i for i, t in enumerate(waves)}

    def wave_of(name: str) -> int | None:
        if name in baseline_waves:
            return pos[baseline_waves[name]]
        stem, dot, suffix = name.rpartition(".")
        if dot and stem in m.stubs:
            try:
                return pos[int(suffix)]
            except (ValueError, KeyError):
                raise MalformedWideName(f"{name!r} has an unparseable wave") from None
        return None

    pred = default_predictor_matrix(d)
    names = pred.names
    for r in names:
        wr = wave_of(r)
        if wr is None:
            continue
        for c in names:
            if r == c:
                continue
            wc = wave_of(c)
            if wc is not None and abs(wc - wr) > window:
                pred.set(r, c, 0)
    return pred


@dataclass(frozen=True)
class LevelsSpec:
    """Measurement level and nesting clusters for nested-intercept methods.

    ``level_of`` maps a column to the column defining its measurement
    level ('' for row level); ``clusters`` lists the grouping columns
    the imputation model puts random intercepts on.
    """

    level_of: dict[str, str] = field(default_factory=dict)
    clusters: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass
class ChainStat:
    chain: int
    iteration: int
    column: str
    mean: float
    sd: float


# ---------------------------------------------------------------------------
# univariate problems
# ---------------------------------------------------------------------------


@dataclass
class UnivariateProblem:
    """One column visit: the observed values and the expanded designs of
    the observed (``_obs``) and the missing (``_mis``) cells."""

    y_obs: np.ndarray
    X_obs: np.ndarray             # fixed design incl. intercept
    X_mis: np.ndarray
    codes_obs: tuple[np.ndarray, ...] = ()  # unit codes per random-effect level
    codes_mis: tuple[np.ndarray, ...] = ()
    sizes: tuple[int, ...] = ()             # units per level
    z_to_x: tuple[int, ...] = ()            # X columns with random coefficients


def _pmm_pick(rng, pred_obs, y_obs, pred_mis, k):
    """Draw each recipient's value from its k nearest donors.

    Donors rank by (|pred_obs - pred_mis|, donor index), so the k
    nearest are fully defined even under tied predictions. They lie
    within k sorted places of the recipient's insertion point, provided
    tied predictions left of it are ordered by descending index and
    those right of it by ascending index: each recipient ranks only
    that window of min(2k, n_obs) donors.
    """
    n = len(y_obs)
    if n < 1:
        raise TooFewDonors("no observed donor values")
    if n < k:
        warnings.warn(
            f"only {n} donors available; shrinking k from {k}",
            stacklevel=3,
        )
        k = n
    w = min(2 * k, n)
    up = np.argsort(pred_obs, kind="stable")
    down = n - 1 - np.argsort(pred_obs[::-1], kind="stable")
    at = np.searchsorted(pred_obs[up], pred_mis)
    pos = np.clip(at - k, 0, n - w)[:, None] + np.arange(w)
    donor = np.where(pos < at[:, None], down[pos], up[pos])
    dist = np.abs(pred_mis[:, None] - pred_obs[donor])
    near = np.take_along_axis(donor, np.lexsort((donor, dist), axis=1)[:, :k], axis=1)
    pick = near[np.arange(len(pred_mis)), rng.integers(0, k, size=len(pred_mis))]
    return y_obs[pick]


def _linear_pmm(rng, prob: UnivariateProblem):
    """Predictive mean matching on a linear fit: donors by their fitted
    values, recipients by the values of one posterior parameter draw."""
    ld = fit_linear_and_draw(rng, prob.X_obs, prob.y_obs)
    return _pmm_pick(rng, prob.X_obs @ ld.beta_hat, prob.y_obs,
                     prob.X_mis @ ld.beta_draw, PMM_DONORS)


def _draw_mvn_params(rng, mean, cov):
    cov = sym(cov) + 1e-12 * np.eye(len(mean))
    return mean + chol(cov) @ rng.normal(size=len(mean))


class _LmmGibbs:
    """LMM Gibbs state for y = X beta + sum_k Z u_k[codes_k] + e.

    Level k has ``sizes[k]`` units with q = len(z_to_x) random
    coefficients each, on the columns Z = X[:, z_to_x] that all levels
    share; z_to_x[0] is column 0 of X, the intercept. A priori
    psi_k ~ IW(I, q), so given u_k it is IW(I + u_k'u_k, q + G_k): an
    inverse chi-square with 1 + G_k dof for a random intercept. At q = 1
    the draws are scalar and Z is never built.
    """

    def __init__(self, p, sizes, z_to_x, var_y):
        q = len(z_to_x)
        psi = max(var_y, 1e-6) / max(len(sizes), 1)
        self.beta = np.zeros(p)
        self.z_to_x = np.asarray(z_to_x)
        self.u = [np.zeros(s) if q == 1 else np.zeros((s, q)) for s in sizes]
        self.psi = [psi if q == 1 else psi * np.eye(q) for _ in sizes]
        self.psi_prec = [np.eye(q) / psi for _ in sizes]
        self.sigma2 = max(var_y, 1e-6)
        self.eta_hat = None

    def _offsets(self, X, codes):
        """Each level's random part Z u_k[codes_k] on the rows of X."""
        if len(self.z_to_x) == 1:
            return [u[c] for u, c in zip(self.u, codes)]
        Z = X[:, self.z_to_x]
        return [np.einsum("nq,nq->n", Z, u[c]) for u, c in zip(self.u, codes)]

    def advance(self, rng, sweeps, y, X, codes, binary=False):
        """``sweeps`` Gibbs sweeps on the observed rows.

        With ``binary`` y is 0/1 and each sweep first redraws the latent
        response z, N(eta, 1) truncated to z > 0 where y = 0 and z <= 0
        where y = 1; sigma2 then stays at its starting value.
        """
        n, p = X.shape
        q = len(self.z_to_x)
        sizes = [len(u) for u in self.u]
        Cx = chol(X.T @ X + 1e-10 * np.eye(p))
        Ci = chol_inverse(Cx)  # beta ~ N(Ci'Ci X'r, s2 Ci'Ci)
        if q == 1:
            counts = [np.bincount(c, minlength=s) for c, s in zip(codes, sizes)]
        else:
            Z = X[:, self.z_to_x]
            ZZ = (Z[:, :, None] * Z[:, None, :]).reshape(n, q * q)
            ZtZ = [group_sums(c, ZZ, s).reshape(s, q, q) for c, s in zip(codes, sizes)]
        if binary:
            lo = np.where(y == 0.0, 0.0, -np.inf)
            hi = np.where(y == 0.0, np.inf, 0.0)
        offsets = self._offsets(X, codes)
        xb = X @ self.beta
        eta_sum = np.zeros(n)
        for _ in range(sweeps):
            if binary:
                y = trunc_normal_array(rng, xb + _total(offsets, n), 1.0, lo, hi)
            for k, c in enumerate(codes):
                r = y - xb - _total(offsets, n, skip=k)
                if q == 1:
                    sums = np.bincount(c, weights=r, minlength=sizes[k])
                    prec = counts[k] / self.sigma2 + 1.0 / self.psi[k]
                    mean = (sums / self.sigma2) / prec
                    self.u[k] = mean + rng.normal(size=sizes[k]) / np.sqrt(prec)
                    # move the level mean into the intercept (interweaving)
                    shift = self.u[k].mean() + rng.normal() * math.sqrt(
                        self.psi[k] / sizes[k]
                    )
                    self.u[k] = self.u[k] - shift
                    self.beta[0] += shift
                    xb += shift
                    offsets[k] = self.u[k][c]
                    self.psi[k] = float(
                        (1.0 + self.u[k] @ self.u[k]) / rng.chisquare(1 + sizes[k])
                    )
                    continue
                u = self._draw_u(rng, k, r, c, Z, ZtZ[k])
                z = rng.normal(size=q)
                shift = u.mean(axis=0) + chol(self.psi[k] / sizes[k]) @ z
                self.u[k] = u - shift
                self.beta[self.z_to_x] += shift
                xb += Z @ shift
                offsets[k] = np.einsum("nq,nq->n", Z, self.u[k][c])
                P, Psi = wishart_precision_draw(
                    rng, (np.eye(q) + self.u[k].T @ self.u[k])[None], q + sizes[k]
                )
                self.psi_prec[k], self.psi[k] = P[0], Psi[0]
            offset = _total(offsets, n)
            r2 = y - offset
            z = rng.normal(size=p)
            self.beta = Ci.T @ (Ci @ (X.T @ r2) + math.sqrt(self.sigma2) * z)
            xb = X @ self.beta
            if not binary:
                resid = r2 - xb
                self.sigma2 = float(resid @ resid) / rng.chisquare(max(n, 1))
            eta_sum += xb + offset
        self.eta_hat = eta_sum / sweeps

    def _draw_u(self, rng, k, r, c, Z, ZtZ):
        """u_k given the rest at q > 1, from the residual r of all else:
        N(inv(lam) b, inv(lam)) per unit, with lam = Z'Z / sigma2 +
        inv(psi_k) (``ZtZ`` holds each unit's Z'Z) and b = Z'r / sigma2."""
        b = group_sums(c, Z * r[:, None], len(ZtZ)) / self.sigma2
        return precision_draw(rng, ZtZ / self.sigma2 + self.psi_prec[k], b)

    def eta(self, X, codes):
        return X @ self.beta + _total(self._offsets(X, codes), X.shape[0])


def _total(parts, n, skip=None):
    """Sum of the length-n ``parts``, leaving out index ``skip``."""
    out = np.zeros(n)
    for k, part in enumerate(parts):
        if k != skip:
            out += part
    return out


def impute_univariate(
    rng: RngStream,
    method: str,
    prob: UnivariateProblem,
    state=None,
    fallback_pmm: bool = False,
):
    """Impute the missing cells of one column; returns (values, state).

    ``state`` carries Gibbs parameters across visits for the mixed-model
    methods; pass the previous visit's state back in.
    """
    y_obs, X_obs, X_mis = prob.y_obs, prob.X_obs, prob.X_mis
    n_mis = len(X_mis)
    if n_mis == 0:
        return np.empty(0), state

    if method == "norm":
        ld = fit_linear_and_draw(rng, X_obs, y_obs)
        draws = X_mis @ ld.beta_draw + math.sqrt(ld.sigma2_draw) * rng.normal(
            size=n_mis
        )
        return draws, state

    if method == "pmm":
        return _linear_pmm(rng, prob), state

    if method == "logreg":
        try:
            fit = fit_logistic(X_obs, y_obs)
        except PerfectSeparation:
            if not fallback_pmm:
                raise
            return _linear_pmm(rng, prob), state
        beta = _draw_mvn_params(rng, fit.beta_hat, fit.cov_hat)
        p = expit(X_mis @ beta)
        return (rng.random(n_mis) < p).astype(float), state

    if method == "polr":
        try:
            fit = fit_polr(X_obs, y_obs.astype(int))
        except PerfectSeparation:
            if not fallback_pmm:
                raise
            return _linear_pmm(rng, prob), state
        k1 = fit.n_cutpoints
        params = _draw_mvn_params(rng, fit.beta_hat, fit.cov_hat)
        for _ in range(10):
            if (np.diff(params[:k1]) > 0).all():
                break
            params = _draw_mvn_params(rng, fit.beta_hat, fit.cov_hat)
        else:
            params[:k1] = np.sort(params[:k1])
        probs = polr_category_probs(params, X_mis, k1)
        cum = np.cumsum(probs, axis=1)
        u = rng.random(n_mis)
        return np.argmax(u[:, None] < cum, axis=1).astype(float), state

    if method in SLOPE_METHODS + NESTED_METHODS:
        binary = method == "2l.latent"
        if state is None:
            state = _LmmGibbs(X_obs.shape[1], prob.sizes, prob.z_to_x,
                              1.0 if binary else float(np.var(y_obs)))
            sweeps = _FIRST_VISIT_SWEEPS
        else:
            sweeps = _LATER_VISIT_SWEEPS
        state.advance(rng, sweeps, y_obs, X_obs, prob.codes_obs, binary)
        eta_mis = state.eta(X_mis, prob.codes_mis)
        if binary:
            return (eta_mis + rng.normal(size=n_mis) <= 0.0).astype(float), state
        if method in ("2l.pan", "ml.lmer.continuous"):
            return eta_mis + math.sqrt(state.sigma2) * rng.normal(size=n_mis), state
        # pmm: donors matched on the linear predictor incl. the random
        # effects (eta_hat averages the visit's sweeps over the observed rows)
        return _pmm_pick(rng, state.eta_hat, y_obs, eta_mis, PMM_DONORS), state

    raise ValueError(f"method {method!r} must be routed by the chain")


# ---------------------------------------------------------------------------
# the cycling engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Factor:
    """A column's distinct values as integer codes (in sorted order of
    the values), with each value's first row and row count."""

    codes: np.ndarray
    size: int
    first: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray) -> "_Factor":
        uniq, first, codes = np.unique(values, return_index=True, return_inverse=True)
        codes = codes.astype(int)
        counts = np.bincount(codes, minlength=len(uniq)).astype(float)
        return cls(codes, len(uniq), first, counts)

    def means(self, x: np.ndarray) -> np.ndarray:
        """Mean of ``x`` within each value."""
        return np.bincount(self.codes, weights=x, minlength=self.size) / self.counts


@dataclass(frozen=True)
class _Layout:
    """Columns of a chain's expanded design: 0 is the intercept, then one
    block per predictor column (the dummies of a categorical one) and
    one block of cluster means per (code-3 column, cluster) pair."""

    width: int
    blocks: dict[int, slice]  # data column -> its block
    means: dict[int, list[tuple[slice, _Factor]]]  # data column -> mean blocks


@dataclass(frozen=True)
class _VisitPlan:
    """What every visit of one target shares over a run.

    A cluster-level target (``level`` set) is imputed on one row per
    level unit: ``obs``, ``mis`` and the codes then index those units,
    and data row ``rows[i]`` takes the value imputed for unit
    ``mis[fill[i]]``. Otherwise ``mis`` is ``rows`` and ``fill`` None.
    """

    col: int
    method: str
    obs: np.ndarray               # rows (units) with an observed target
    mis: np.ndarray               # rows (units) to impute
    rows: np.ndarray              # data rows of the target's missing cells
    x_cols: np.ndarray            # design columns forming X
    z_to_x: tuple[int, ...] = ()
    level: _Factor | None = None
    fill: np.ndarray | None = None
    codes_obs: tuple[np.ndarray, ...] = ()
    codes_mis: tuple[np.ndarray, ...] = ()
    sizes: tuple[int, ...] = ()


def _plan_run(
    d: Dataset, methods: MethodVector, pred: PredictorMatrix, levels: LevelsSpec | None
) -> tuple[_Layout, dict[str, _VisitPlan]]:
    """The design layout and each target's visit plan, built once per run
    (after ``_validate_codes``) and shared by every chain."""
    levels = levels or LevelsSpec()
    factors: dict[str, _Factor] = {}

    def factor(name: str) -> _Factor:
        if name not in factors:
            factors[name] = _Factor.of(d.column(name))
        return factors[name]

    width = 1
    blocks: dict[int, slice] = {}
    means: dict[int, list[tuple[slice, _Factor]]] = {}
    mean_block: dict[tuple[int, str], slice] = {}
    plans: dict[str, _VisitPlan] = {}
    for target in methods.targets(d):
        row = pred.row(target)
        cluster_col = next((c for c, v in row.items() if v == -2), None)
        x_cols, z_to_x = [0], [0]
        for col, code in row.items():
            if col == target or code not in (1, 2, 3):
                continue
            j = d.col_index(col)
            if j not in blocks:
                w = d.spec(col).n_levels - 1 if d.spec(col).kind == "categorical" else 1
                blocks[j] = slice(width, width + w)
                width += w
            block = range(blocks[j].start, blocks[j].stop)
            if code == 2:
                z_to_x.extend(range(len(x_cols), len(x_cols) + len(block)))
            x_cols.extend(block)
            if code == 3:
                if (j, cluster_col) not in mean_block:
                    mean_block[j, cluster_col] = slice(width, width + len(block))
                    means.setdefault(j, []).append(
                        (mean_block[j, cluster_col], factor(cluster_col))
                    )
                    width += len(block)
                m = mean_block[j, cluster_col]
                x_cols.extend(range(m.start, m.stop))
        try:
            plans[target] = _visit_plan(
                d, target, methods[target], cluster_col, levels, factor,
                np.asarray(x_cols), tuple(z_to_x),
            )
        except ValueError as e:
            # a fixed property of the data: every chain would fail on its
            # first visit of this target, chain 0 first
            raise ChainFailure(0, target, e) from e
    return _Layout(width, blocks, means), plans


def _visit_plan(d, target, method, cluster_col, levels, factor, x_cols, z_to_x):
    """One target's ``_VisitPlan``; ``factor`` factorizes a data column."""
    j = d.col_index(target)
    miss = d.mask[:, j]
    rows = np.flatnonzero(miss)
    level_col = cluster_col if method in ONLY_METHODS else (
        levels.level_of.get(target, "") if method in NESTED_METHODS else ""
    )
    level = factor(level_col) if level_col else None
    if level is not None:
        y, obs = d.values[:, j], ~miss
        if obs.any() and (
            (y[obs] != y[level.first][level.codes[obs]]).any()
            or (miss[level.first][level.codes] != miss).any()
        ):
            raise ValueError(
                f"{target} is not constant within {level_col!r}; "
                "cluster-level imputation needs one value per cluster"
            )
        miss = miss[level.first]
    obs, mis = np.flatnonzero(~miss), np.flatnonzero(miss)
    fill = None if level is None else np.searchsorted(mis, level.codes[rows])
    if method in SLOPE_METHODS:
        units = [factor(cluster_col)]
    elif method in NESTED_METHODS:
        units = [
            factor(g) if level is None else _Factor.of(d.column(g)[level.first])
            for g in levels.clusters.get(target, ())
        ]
        z_to_x = (0,)
    else:
        units, z_to_x = [], ()
    if method in ONLY_METHODS:
        method = "norm" if method == "2lonly.norm" else "pmm"
    return _VisitPlan(
        col=j, method=method, obs=obs, mis=mis, rows=rows, x_cols=x_cols,
        z_to_x=z_to_x, level=level, fill=fill,
        codes_obs=tuple(f.codes[obs] for f in units),
        codes_mis=tuple(f.codes[mis] for f in units),
        sizes=tuple(f.size for f in units),
    )


class _Chain:
    def __init__(self, rng, d, layout: _Layout, plans: dict[str, _VisitPlan],
                 fallback_pmm):
        self.rng = rng
        self.d = d
        self.layout = layout
        self.plans = plans
        self.fallback = fallback_pmm
        self.completed = d.values.copy()
        self.targets = list(plans)
        self.state: dict[str, object] = {}
        for col in self.targets:
            j = d.col_index(col)
            miss = d.mask[:, j]
            pool = self.completed[~miss, j]
            if pool.size == 0:
                raise SingularFit(f"column {col!r} has no observed values")
            self.completed[miss, j] = rng.choice(pool, size=int(miss.sum()))
        self.design = np.empty((d.n_rows, layout.width))
        self.design[:, 0] = 1.0
        for j in layout.blocks:
            self._refresh(j)

    def _refresh(self, j: int):
        """Rewrite data column j's design block and the cluster means of it."""
        block = self.layout.blocks.get(j)
        if block is None:
            return
        x = self.completed[:, j]
        sp = self.d.columns[j]
        if sp.kind == "categorical":
            self.design[:, block] = x[:, None] == np.arange(1, sp.n_levels)
        else:
            self.design[:, block.start] = x
        for mean_block, f in self.layout.means.get(j, ()):
            for b, m in zip(range(block.start, block.stop),
                            range(mean_block.start, mean_block.stop)):
                self.design[:, m] = f.means(self.design[:, b])[f.codes]

    def visit(self, col: str):
        p = self.plans[col]
        E = self.design
        if p.level is None:
            y_obs = self.completed[p.obs, p.col]
            X_obs, X_mis = E[np.ix_(p.obs, p.x_cols)], E[np.ix_(p.mis, p.x_cols)]
        else:
            y_obs = self.completed[p.level.first[p.obs], p.col]
            X = np.column_stack([p.level.means(E[:, c]) for c in p.x_cols])
            X_obs, X_mis = X[p.obs], X[p.mis]
        prob = UnivariateProblem(
            y_obs, X_obs, X_mis, p.codes_obs, p.codes_mis, p.sizes, p.z_to_x
        )
        vals, self.state[col] = impute_univariate(
            self.rng, p.method, prob, self.state.get(col), self.fallback
        )
        self.completed[p.rows, p.col] = vals if p.fill is None else vals[p.fill]
        self._refresh(p.col)

    def cycle(self):
        for col in self.targets:
            try:
                self.visit(col)
            except Exception as e:  # noqa: BLE001 - context added, then re-raised
                raise ChainFailure(-1, col, e) from e


def _chain_task(payload):
    """Run one chain start-to-finish; used directly and by worker pools."""
    (chain_rng, d, layout, plans, maxit, fallback, c) = payload
    try:
        chain = _Chain(chain_rng, d, layout, plans, fallback)
        stats = []
        for it in range(1, maxit + 1):
            chain.cycle()
            for col in chain.targets:
                j = d.col_index(col)
                cells = chain.completed[d.mask[:, j], j]
                if cells.size:
                    stats.append(
                        ChainStat(c, it, col, float(cells.mean()), float(cells.std()))
                    )
        return chain.completed, stats
    except ChainFailure as e:
        raise ChainFailure(c, e.column, e.cause) from e.cause


def run_fcs(
    rng: RngStream,
    d: Dataset,
    methods: MethodVector,
    pred: PredictorMatrix,
    levels: LevelsSpec | None = None,
    maxit: int = 10,
    m: int = 5,
    fallback_pmm: bool = False,
    workers: int = 1,
) -> tuple[ImputedStack, list[ChainStat]]:
    """Run m independent chains for maxit cycles each.

    Chain c draws from ``rng.substream(c)``, so results are identical
    whatever the scheduling; ``workers`` > 1 runs chains in parallel
    processes.
    """
    if maxit < 1 or m < 1:
        raise ValueError("maxit and m must be >= 1")
    methods.validate(d)
    _validate_codes(d, methods, pred)
    layout, plans = _plan_run(d, methods, pred, levels)
    tasks = [
        (rng.substream(c), d, layout, plans, maxit, fallback_pmm, c)
        for c in range(m)
    ]
    if workers > 1 and m > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, m)) as ex:
            results = list(ex.map(_chain_task, tasks))
    else:
        results = [_chain_task(t) for t in tasks]
    stats: list[ChainStat] = []
    imputations = []
    for values, chain_stats in results:
        imputations.append(d.completed(values))
        stats.extend(chain_stats)
    return ImputedStack(d, imputations), stats


def _validate_codes(d: Dataset, methods: MethodVector, pred: PredictorMatrix):
    for col in methods.targets(d):
        row = pred.row(col)
        method = methods[col]
        has_cluster = any(v == -2 for v in row.values())
        if method in SLOPE_METHODS + ONLY_METHODS and not has_cluster:
            raise ValueError(f"{method} row {col!r} needs a -2 cluster variable")
        if any(v in (2, 3) for v in row.values()) and method not in SLOPE_METHODS:
            raise ValueError(
                f"codes 2/3 in row {col!r} need a multilevel method, got {method}"
            )
