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
    DegenerateMean,
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
from .rng import RngStream, chol, inv_wishart_draw, ndtri, sym, trunc_normal_array
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


def _expit(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


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
    """One column visit: data the method sees, already expanded."""

    y: np.ndarray                 # full target column (current completed values)
    miss: np.ndarray              # bool, cells to impute
    X: np.ndarray                 # fixed design incl. intercept
    kind: str
    n_levels: int
    Z: np.ndarray | None = None   # random design (slope methods)
    group: np.ndarray | None = None
    n_groups: int = 0
    nested: tuple[np.ndarray, ...] = ()
    nested_sizes: tuple[int, ...] = ()
    z_to_x: tuple[int, ...] = ()
    donor_k: int = PMM_DONORS


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


def _draw_mvn_params(rng, mean, cov):
    cov = sym(cov) + 1e-12 * np.eye(len(mean))
    return mean + chol(cov) @ rng.normal(size=len(mean))


class _SlopeGibbs:
    """LMM Gibbs state for one cluster factor with random coefficients."""

    def __init__(self, p, q, n_groups, var_y, fixed_sigma=False, z_to_x=None):
        self.beta = np.zeros(p)
        self.u = np.zeros((n_groups, q))
        self.psi = np.eye(q) * max(var_y, 1e-6)
        self.sigma2 = 1.0 if fixed_sigma else max(var_y, 1e-6)
        self.fixed_sigma = fixed_sigma
        self.z_to_x = np.arange(q) if z_to_x is None else np.asarray(z_to_x)
        self.eta_hat = None

    def advance(self, rng, sweeps, y, X, Z, group, n_groups):
        q = Z.shape[1]
        ZtZ = np.zeros((n_groups, q, q))
        np.add.at(ZtZ, group, Z[:, :, None] * Z[:, None, :])
        XtX = X.T @ X
        Cx = chol(XtX + 1e-10 * np.eye(X.shape[1]))
        eta_sum = np.zeros(len(y))
        for _ in range(sweeps):
            # u | rest
            r = y - X @ self.beta
            Ztr = np.zeros((n_groups, q))
            np.add.at(Ztr, group, Z * r[:, None])
            prec = np.linalg.inv(self.psi)[None] + ZtZ / self.sigma2
            cov = np.linalg.inv(prec)
            cov = sym(cov)
            mean = np.einsum("gij,gj->gi", cov, Ztr / self.sigma2)
            L = chol(cov)
            self.u = mean + np.einsum(
                "gij,gj->gi", L, rng.normal(size=(n_groups, q))
            )
            # translation interweave: the mean of u trades against the
            # matching fixed effects; resampling the split keeps the
            # chain mixing when clusters are information-rich
            shift = self.u.mean(axis=0) + chol(
                (self.psi + self.psi.T) / (2.0 * n_groups)
            ) @ rng.normal(size=q)
            self.u = self.u - shift
            self.beta[self.z_to_x] += shift
            # psi | u
            self.psi = inv_wishart_draw(
                rng, np.eye(q) + self.u.T @ self.u, q + 1 + n_groups
            )
            # beta | rest
            r2 = y - np.einsum("nq,nq->n", Z, self.u[group])
            b_hat = np.linalg.solve(Cx.T, np.linalg.solve(Cx, X.T @ r2))
            z = rng.normal(size=len(b_hat))
            self.beta = b_hat + math.sqrt(self.sigma2) * np.linalg.solve(Cx.T, z)
            # sigma2 | resid
            if not self.fixed_sigma:
                resid = y - X @ self.beta - np.einsum("nq,nq->n", Z, self.u[group])
                self.sigma2 = float(resid @ resid) / rng.chisquare(max(len(y), 1))
            eta_sum += X @ self.beta + np.einsum("nq,nq->n", Z, self.u[group])
        self.eta_hat = eta_sum / sweeps

    def eta(self, X, Z, group):
        return X @ self.beta + np.einsum("nq,nq->n", Z, self.u[group])


class _NestedGibbs:
    """LMM Gibbs state with independent random intercepts per level."""

    def __init__(self, p, sizes, var_y):
        self.beta = np.zeros(p)
        self.u = [np.zeros(s) for s in sizes]
        self.psi = [max(var_y, 1e-6) / max(len(sizes), 1) for _ in sizes]
        self.sigma2 = max(var_y, 1e-6)
        self.eta_hat = None

    def _offset(self, nested, n, skip=None):
        out = np.zeros(n)
        for k, codes in enumerate(nested):
            if k == skip:
                continue
            out += self.u[k][codes]
        return out

    def advance(self, rng, sweeps, y, X, nested, sizes):
        n = len(y)
        XtX = X.T @ X
        Cx = chol(XtX + 1e-10 * np.eye(X.shape[1]))
        counts = [np.bincount(c, minlength=s) for c, s in zip(nested, sizes)]
        eta_sum = np.zeros(n)
        for _ in range(sweeps):
            for k, codes in enumerate(nested):
                r = y - X @ self.beta - self._offset(nested, n, skip=k)
                sums = np.bincount(codes, weights=r, minlength=sizes[k])
                prec = counts[k] / self.sigma2 + 1.0 / self.psi[k]
                mean = (sums / self.sigma2) / prec
                self.u[k] = mean + rng.normal(size=sizes[k]) / np.sqrt(prec)
                # move the level mean into the intercept (interweaving)
                shift = self.u[k].mean() + rng.normal() * math.sqrt(
                    self.psi[k] / sizes[k]
                )
                self.u[k] = self.u[k] - shift
                self.beta[0] += shift
                self.psi[k] = float(
                    (1.0 + self.u[k] @ self.u[k]) / rng.chisquare(1 + sizes[k])
                )
            r2 = y - self._offset(nested, n)
            b_hat = np.linalg.solve(Cx.T, np.linalg.solve(Cx, X.T @ r2))
            z = rng.normal(size=len(b_hat))
            self.beta = b_hat + math.sqrt(self.sigma2) * np.linalg.solve(Cx.T, z)
            resid = r2 - X @ self.beta
            self.sigma2 = float(resid @ resid) / rng.chisquare(max(n, 1))
            eta_sum += X @ self.beta + self._offset(nested, n)
        self.eta_hat = eta_sum / sweeps

    def eta(self, X, nested):
        return X @ self.beta + self._offset(nested, X.shape[0])


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
    obs = ~prob.miss
    y_obs = prob.y[obs]
    X_obs, X_mis = prob.X[obs], prob.X[prob.miss]
    n_mis = int(prob.miss.sum())
    if n_mis == 0:
        return np.empty(0), state

    if method == "norm":
        ld = fit_linear_and_draw(rng, X_obs, y_obs)
        draws = X_mis @ ld.beta_draw + math.sqrt(ld.sigma2_draw) * rng.normal(
            size=n_mis
        )
        return draws, state

    if method == "pmm":
        ld = fit_linear_and_draw(rng, X_obs, y_obs)
        return (
            _pmm_pick(rng, X_obs @ ld.beta_hat, y_obs, X_mis @ ld.beta_draw,
                      prob.donor_k),
            state,
        )

    if method == "logreg":
        try:
            fit = fit_logistic(X_obs, y_obs)
        except PerfectSeparation:
            if not fallback_pmm:
                raise
            ld = fit_linear_and_draw(rng, X_obs, y_obs)
            return (
                _pmm_pick(rng, X_obs @ ld.beta_hat, y_obs, X_mis @ ld.beta_draw,
                          prob.donor_k),
                state,
            )
        beta = _draw_mvn_params(rng, fit.beta_hat, fit.cov_hat)
        p = _expit(X_mis @ beta)
        return (rng.random(n_mis) < p).astype(float), state

    if method == "polr":
        try:
            fit = fit_polr(X_obs, y_obs.astype(int))
        except PerfectSeparation:
            if not fallback_pmm:
                raise
            ld = fit_linear_and_draw(rng, X_obs, y_obs)
            return (
                _pmm_pick(rng, X_obs @ ld.beta_hat, y_obs, X_mis @ ld.beta_draw,
                          prob.donor_k),
                state,
            )
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

    if method in SLOPE_METHODS:
        Z, group = prob.Z, prob.group
        latent = method == "2l.latent"
        if state is None:
            state = _SlopeGibbs(
                prob.X.shape[1], Z.shape[1], prob.n_groups,
                float(np.var(y_obs)) if not latent else 1.0,
                fixed_sigma=latent,
                z_to_x=prob.z_to_x if prob.z_to_x else None,
            )
            sweeps = _FIRST_VISIT_SWEEPS
        else:
            sweeps = _LATER_VISIT_SWEEPS
        if latent:
            # probit-style latent response for observed cells, resampled
            # inside the advance loop around the current linear predictor
            for _ in range(sweeps):
                eta_obs = state.eta(X_obs, Z[obs], group[obs])
                lo = np.where(y_obs == 0.0, 0.0, -np.inf)
                hi = np.where(y_obs == 0.0, np.inf, 0.0)
                z_obs = trunc_normal_array(rng, eta_obs, 1.0, lo, hi)
                state.advance(rng, 1, z_obs, X_obs, Z[obs], group[obs], prob.n_groups)
            eta_mis = state.eta(X_mis, Z[prob.miss], group[prob.miss])
            z_mis = eta_mis + rng.normal(size=n_mis)
            return (z_mis <= 0.0).astype(float), state
        state.advance(rng, sweeps, y_obs, X_obs, Z[obs], group[obs], prob.n_groups)
        eta_mis = state.eta(X_mis, Z[prob.miss], group[prob.miss])
        if method == "2l.pan":
            return eta_mis + math.sqrt(state.sigma2) * rng.normal(size=n_mis), state
        # 2l.pmm: donors matched on the linear predictor incl. cluster effects
        # (eta_hat averages the visit's sweeps over the observed rows)
        return (
            _pmm_pick(rng, state.eta_hat, y_obs, eta_mis, prob.donor_k),
            state,
        )

    if method in NESTED_METHODS:
        nested_obs = tuple(c[obs] for c in prob.nested)
        if state is None:
            state = _NestedGibbs(
                prob.X.shape[1], prob.nested_sizes, float(np.var(y_obs))
            )
            sweeps = _FIRST_VISIT_SWEEPS
        else:
            sweeps = _LATER_VISIT_SWEEPS
        state.advance(rng, sweeps, y_obs, X_obs, nested_obs, prob.nested_sizes)
        nested_mis = tuple(c[prob.miss] for c in prob.nested)
        eta_mis = state.eta(X_mis, nested_mis)
        if method == "ml.lmer.continuous":
            return eta_mis + math.sqrt(state.sigma2) * rng.normal(size=n_mis), state
        return _pmm_pick(rng, state.eta_hat, y_obs, eta_mis, prob.donor_k), state

    raise ValueError(f"method {method!r} must be routed by the chain")


def adaptive_round(imputed: np.ndarray, completed: np.ndarray) -> np.ndarray:
    """Round continuous imputations of a binary column.

    Threshold c = w - ndtri(w) * sqrt(w (1 - w)) with w the mean of the
    completed column; values above c become 1.
    """
    w = float(np.mean(completed))
    if not 0.0 < w < 1.0:
        raise DegenerateMean(f"completed mean {w} outside (0, 1)")
    c = w - ndtri(w) * math.sqrt(w * (1.0 - w))
    return (np.asarray(imputed, dtype=float) > c).astype(float)


# ---------------------------------------------------------------------------
# the cycling engine
# ---------------------------------------------------------------------------


def _factorize(values: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Integer codes, the number of distinct values and each one's first row."""
    uniq, first, codes = np.unique(values, return_index=True, return_inverse=True)
    return codes.astype(int), len(uniq), first


class _Chain:
    def __init__(self, rng, d, methods, pred, levels, fallback_pmm):
        self.rng = rng
        self.d = d
        self.methods = methods
        self.pred = pred
        self.levels = levels or LevelsSpec()
        self.fallback = fallback_pmm
        self.completed = d.values.copy()
        self.targets = methods.targets(d)
        self.state: dict[str, object] = {}
        for col in self.targets:
            j = d.col_index(col)
            miss = d.mask[:, j]
            pool = self.completed[~miss, j]
            if pool.size == 0:
                raise SingularFit(f"column {col!r} has no observed values")
            self.completed[miss, j] = rng.choice(pool, size=int(miss.sum()))

    # -- design construction ------------------------------------------------

    def _expand(self, col: str, rows=None) -> tuple[np.ndarray, list[str]]:
        sp = self.d.spec(col)
        j = self.d.col_index(col)
        x = self.completed[:, j] if rows is None else self.completed[rows, j]
        if sp.kind == "categorical":
            cols = [(x == k).astype(float) for k in range(1, sp.n_levels)]
            return np.column_stack(cols), [
                f"{col}_{sp.levels[k]}" for k in range(1, sp.n_levels)
            ]
        return x[:, None].astype(float), [col]

    def _design(self, target: str):
        row = self.pred.row(target)
        cluster_col = next((c for c, v in row.items() if v == -2), None)
        fixed = [np.ones((self.d.n_rows, 1))]
        slopes = [np.ones((self.d.n_rows, 1))]
        z_to_x = [0]  # every random column also sits in X; track where
        x_cursor = 1
        for col, code in row.items():
            if col == target or code in (0, -2):
                continue
            block, _ = self._expand(col)
            if code in (1, 2, 3):
                fixed.append(block)
            if code == 2:
                slopes.append(block)
                z_to_x.extend(range(x_cursor, x_cursor + block.shape[1]))
            if code in (1, 2, 3):
                x_cursor += block.shape[1]
            if code == 3:
                if cluster_col is None:
                    raise ValueError(
                        f"code 3 for {col!r} needs a cluster variable in row {target!r}"
                    )
                codes, n_g, _ = _factorize(self.d.column(cluster_col))
                means = np.zeros((n_g, block.shape[1]))
                counts = np.bincount(codes, minlength=n_g).astype(float)
                for b in range(block.shape[1]):
                    sums = np.bincount(codes, weights=block[:, b], minlength=n_g)
                    means[:, b] = sums / counts
                fixed.append(means[codes])
                x_cursor += block.shape[1]
        X = np.concatenate(fixed, axis=1)
        Z = np.concatenate(slopes, axis=1)
        return X, Z, cluster_col, np.asarray(z_to_x)

    def _collapse(self, level_col: str, X: np.ndarray, y, miss, target=None):
        """One row per level value; predictors averaged, target first-row."""
        codes, n_g, first = _factorize(self.d.column(level_col))
        counts = np.bincount(codes, minlength=n_g).astype(float)
        Xc = np.zeros((n_g, X.shape[1]))
        for b in range(X.shape[1]):
            Xc[:, b] = np.bincount(codes, weights=X[:, b], minlength=n_g) / counts
        obs = ~miss
        if obs.any() and (
            (y[obs] != y[first][codes[obs]]).any()
            or (miss[first][codes] != miss).any()
        ):
            raise ValueError(
                f"{target or 'target'} is not constant within {level_col!r}; "
                "cluster-level imputation needs one value per cluster"
            )
        return codes, first, Xc, y[first], miss[first]

    def visit(self, col: str):
        method = self.methods[col]
        j = self.d.col_index(col)
        miss = self.d.mask[:, j]
        y = self.completed[:, j].copy()
        sp = self.d.spec(col)
        X, Z, cluster_col, z_to_x = self._design(col)

        if method in ONLY_METHODS or (
            method in NESTED_METHODS and self.levels.level_of.get(col, "")
        ):
            level_col = (
                cluster_col
                if method in ONLY_METHODS
                else self.levels.level_of[col]
            )
            if level_col is None:
                raise ValueError(f"{method} for {col!r} needs a cluster variable")
            codes, first, Xc, yc, missc = self._collapse(
                level_col, X, y, miss, target=col
            )
            if method in ONLY_METHODS:
                core = "norm" if method == "2lonly.norm" else "pmm"
                prob = UnivariateProblem(
                    yc, missc, Xc, sp.kind, sp.n_levels
                )
            else:
                core = method
                groups = self.levels.clusters.get(col, ())
                nested, sizes = self._nested_codes(groups, first)
                prob = UnivariateProblem(
                    yc, missc, Xc, sp.kind, sp.n_levels,
                    nested=nested, nested_sizes=sizes,
                )
            vals, st = impute_univariate(
                self.rng, core, prob, self.state.get(col), self.fallback
            )
            self.state[col] = st
            filled = yc.copy()
            filled[missc] = vals
            self.completed[miss, j] = filled[codes][miss]
            return

        if method in SLOPE_METHODS:
            if cluster_col is None:
                raise ValueError(f"{method} for {col!r} needs a -2 cluster column")
            group, n_g, _ = _factorize(self.d.column(cluster_col))
            prob = UnivariateProblem(
                y, miss, X, sp.kind, sp.n_levels, Z=Z, group=group, n_groups=n_g,
                z_to_x=tuple(z_to_x),
            )
        elif method in NESTED_METHODS:
            groups = self.levels.clusters.get(col, ())
            nested, sizes = self._nested_codes(groups)
            prob = UnivariateProblem(
                y, miss, X, sp.kind, sp.n_levels, nested=nested, nested_sizes=sizes
            )
        else:
            prob = UnivariateProblem(y, miss, X, sp.kind, sp.n_levels)
        vals, st = impute_univariate(
            self.rng, method, prob, self.state.get(col), self.fallback
        )
        self.state[col] = st
        self.completed[miss, j] = vals

    def _nested_codes(self, groups, first=None):
        """Codes of each grouping; on collapsed rows (``first`` holds each
        level unit's first row) the grouping's value at that row."""
        nested = []
        sizes = []
        for g in groups:
            values = self.d.column(g)
            c, s, _ = _factorize(values if first is None else values[first])
            nested.append(c)
            sizes.append(s)
        return tuple(nested), tuple(sizes)

    def cycle(self):
        for col in self.targets:
            try:
                self.visit(col)
            except Exception as e:  # noqa: BLE001 - context added, then re-raised
                raise ChainFailure(-1, col, e) from e

    def snapshot(self) -> Dataset:
        return self.d.completed(self.completed)


def _chain_task(payload):
    """Run one chain start-to-finish; used directly and by worker pools."""
    (chain_rng, d, methods, pred, levels, maxit, fallback, c) = payload
    try:
        chain = _Chain(chain_rng, d, methods, pred, levels, fallback)
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
    tasks = [
        (rng.substream(c), d, methods, pred, levels, maxit, fallback_pmm, c)
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
