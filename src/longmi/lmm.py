"""Random-intercept linear mixed models with 1 or 2 nested groupings.

Variance components are estimated by EM (via Henderson's mixed-model
equations) followed by a Newton polish of the exact ML or REML
deviance. V is never materialized: through the Woodbury identity
everything runs on the capacitance matrix M = Z'Z + diag(sigma_e /
sigma_k). With random intercepts each outer group's block of M is an
arrowhead (the outer intercept over a diagonal of its inner groups), so
its determinant, solves and inverse diagonal have a closed form in
per-group sums: a Schur complement on the inner diagonal, the structure
behind Henderson's mixed-model equations and lme4's profiled deviance
(Bates, Maechler, Bolker & Walker, J. Stat. Softw. 67(1), 2015). A
one-level model is the same path without the outer row.

Components that collapse onto the boundary are pinned at zero and
flagged; non-convergence returns the best point found with
``converged=False`` rather than raising.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, UnsupportedNesting
from .formula import ModelFormula, build_design, grouping_codes, parse_formula
from .rng import cho_factor, cho_solve
from .table import Dataset

_LOG2PI = math.log(2.0 * math.pi)
_MAX_EM = 500
_MAX_NEWTON = 50


@dataclass
class LmmFit:
    """Fixed effects with SEs, variance components and fit diagnostics."""

    names: list[str]
    beta: np.ndarray
    se: np.ndarray
    var_components: dict[str, float]
    loglik: float
    criterion: str
    grouping: tuple[str, ...]
    converged: bool
    boundary: tuple[str, ...]
    n_obs: int
    n_iter: int

    def params(self) -> list[tuple[str, float, float]]:
        return [
            (n, float(b), float(s))
            for n, b, s in zip(self.names, self.beta, self.se)
        ]


class _Blocks:
    """Per-group sums of the data for nested random intercepts.

    ``counts[k]`` and ``sums[k]`` hold each level-k group's row count and
    its column sums of F = [X | y], outermost level first. An inner group
    is an (outer, inner) label pair, so inner labels reused across outer
    groups still nest. With two levels the inner groups are sorted by
    outer group: ``up`` maps each to its outer group and ``starts`` marks
    where each outer group's run begins.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, codes: list[np.ndarray]):
        if not 1 <= len(codes) <= 2:
            raise UnsupportedNesting(
                f"random intercepts take 1 or 2 nested groupings, got {len(codes)}"
            )
        self.n, self.p = X.shape
        F = np.column_stack([X, y])
        self.FtF = F.T @ F
        self.XtX = self.FtF[:-1, :-1]
        self.Xty = self.FtF[:-1, -1]
        self.yty = float(self.FtF[-1, -1])
        self.var_y = float(np.var(y))
        key = codes[0]
        if len(codes) == 2:
            _, outer = np.unique(codes[0], return_inverse=True)
            _, inner = np.unique(codes[1], return_inverse=True)
            key = outer * (inner.max() + 1) + inner
        _, first, code = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(code, kind="stable")
        inner_n = np.bincount(code).astype(float)
        inner_F = np.add.reduceat(F[order], _run_starts(code[order]), axis=0)
        self.counts, self.sums = [inner_n], [inner_F]
        self.up = self.starts = None
        if len(codes) == 2:
            self.up = outer[first]
            self.starts = _run_starts(self.up)
            self.counts.insert(0, np.add.reduceat(inner_n, self.starts))
            self.sums.insert(0, np.add.reduceat(inner_F, self.starts, axis=0))
        self.q_level = np.array([len(c) for c in self.counts])


def _run_starts(sorted_codes: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.diff(sorted_codes, prepend=-1))


def _restrict_blocks(blocks: _Blocks, keep: np.ndarray) -> _Blocks:
    """The one-level blocks of the single kept level."""
    (k,) = np.flatnonzero(keep)
    sub = copy.copy(blocks)
    sub.counts, sub.sums = [blocks.counts[k]], [blocks.sums[k]]
    sub.up = sub.starts = None
    sub.q_level = blocks.q_level[[k]]
    return sub


def _solve(blocks: _Blocks, lam: np.ndarray):
    """Closed-form pieces of M = Z'Z + diag(lam) for the current theta.

    Each outer group's block of M is an arrowhead: the outer row over a
    diagonal d_j = n_j + lam_1 of its inner groups. With the Schur
    complement t_s = lam_0 + lam_1 * sum_j n_j / d_j, log det M is
    sum log d + sum log t, and M^-1 b solves x_s = (b_s - sum_j n_j b_j /
    d_j) / t_s, then x_j = (b_j - n_j x_s) / d_j. Returns log det M,
    F'Z M^-1 Z'F, and per level M^-1 Z'F and the diagonal of M^-1.
    """
    n1, F1 = blocks.counts[-1], blocks.sums[-1]
    d = n1 + lam[-1]
    sol1 = F1 / d[:, None]
    diag1 = 1.0 / d
    logdet = float(np.sum(np.log(d)))
    K = F1.T @ sol1
    if blocks.starts is None:
        return logdet, K, [sol1], [diag1]
    f = n1 * diag1
    t = lam[0] + lam[1] * np.add.reduceat(f, blocks.starts)
    R = blocks.sums[0] - np.add.reduceat(f[:, None] * F1, blocks.starts, axis=0)
    sol0 = R / t[:, None]
    K += R.T @ sol0
    logdet += float(np.sum(np.log(t)))
    sol1 -= f[:, None] * sol0[blocks.up]
    diag1 += f**2 / t[blocks.up]
    return logdet, K, [sol0, sol1], [1.0 / t, diag1]


def _deviance_core(blocks: _Blocks, sig: np.ndarray, sig_e: float, criterion: str):
    n, p = blocks.n, blocks.p
    logdetM, K, sol, diag = _solve(blocks, sig_e / sig)
    A = blocks.FtF - K  # [S c; c' y'y_adj], profiled over the random effects
    S_cf = cho_factor(A[:p, :p], lower=True)
    beta = cho_solve(S_cf, A[:p, p])
    rvr = (A[p, p] - float(beta @ A[:p, p])) / sig_e
    logdetV = (
        (n - blocks.q_level.sum()) * math.log(sig_e)
        + float(np.sum(blocks.q_level * np.log(sig)))
        + logdetM
    )
    if criterion == "REML":
        logdetS = 2.0 * np.sum(np.log(np.diag(S_cf[0])))
        dev = (n - p) * _LOG2PI + logdetV + logdetS - p * math.log(sig_e) + rvr
    else:
        dev = n * _LOG2PI + logdetV + rvr
    return dev, beta, S_cf, sol, diag


def _deviance(blocks, theta, criterion):
    return _deviance_core(blocks, theta[:-1], theta[-1], criterion)[0]


def _level_terms(blocks: _Blocks, theta: np.ndarray, criterion: str):
    """Sums shared by the gradient and the EM update.

    With u = M^-1 Z'(y - X beta) and W = M^-1 Z'X, returns beta and, per
    level k, sum u_k^2, the sum of diag(M^-1) over k, tr(S^-1 W_k'W_k),
    plus u'Z'y and u'Z'X beta over all levels.
    """
    _, beta, S_cf, sol, diag = _deviance_core(blocks, theta[:-1], theta[-1], criterion)
    p = blocks.p
    usq, dsum, tw = np.empty((3, len(sol)))
    uzy = uzxb = 0.0
    for k, (s, dg, F) in enumerate(zip(sol, diag, blocks.sums)):
        W = s[:, :p]
        u = s[:, p] - W @ beta
        usq[k] = u @ u
        dsum[k] = dg.sum()
        tw[k] = np.trace(cho_solve(S_cf, W.T @ W))
        uzy += float(u @ F[:, p])
        uzxb += float(u @ (F[:, :p] @ beta))
    return beta, usq, dsum, tw, uzy, uzxb


def _gradient(blocks: _Blocks, theta: np.ndarray, criterion: str) -> np.ndarray:
    """d(deviance)/d(sigma^2) for each component, residual last.

    Z'V^-1 = diag(lam) M^-1 Z' / sig_e and Z'V^-1 Z = (lam - lam^2 M^-1) / sig_e
    turn the trace and quadratic terms into the per-level sums.
    """
    sig, sig_e = theta[:-1], theta[-1]
    beta, usq, dsum, tw, uzy, uzxb = _level_terms(blocks, theta, criterion)
    lam = sig_e / sig
    reml = criterion == "REML"
    grad_sig = blocks.q_level / sig - (sig_e * (dsum + reml * tw) + usq) / sig**2
    rtr = blocks.yty - 2.0 * float(beta @ blocks.Xty) + float(beta @ blocks.XtX @ beta)
    corr_e = reml * (blocks.p - float(lam @ tw))
    trV_e = blocks.n - blocks.q_level.sum() + float(lam @ dsum)
    quad_e = rtr - (uzy - uzxb) - float(lam @ usq)
    return np.append(grad_sig, (trV_e - corr_e) / sig_e - quad_e / sig_e**2)


def _em_step(blocks: _Blocks, theta: np.ndarray) -> np.ndarray:
    """One REML EM update through the mixed-model equations."""
    beta, usq, dsum, tw, uzy, _ = _level_terms(blocks, theta, "REML")
    new_sig = (usq + theta[-1] * (dsum + tw)) / blocks.q_level
    new_sig_e = (blocks.yty - float(beta @ blocks.Xty) - uzy) / (blocks.n - blocks.p)
    return np.append(new_sig, max(new_sig_e, 1e-300))


def _fit_components(blocks: _Blocks, criterion: str):
    """EM warm start then Newton on log-variances; returns
    (theta, deviance, converged, n_iter, boundary_mask)."""
    var_y = max(blocks.var_y, 1e-12)
    L = len(blocks.q_level)
    floor = 1e-7 * var_y

    def drop_and_refit(keep: np.ndarray):
        if not keep.any():
            # every component on the boundary: residual-only OLS model
            S_cf = cho_factor(blocks.XtX, lower=True)
            beta = cho_solve(S_cf, blocks.Xty)
            rss = max(blocks.yty - float(beta @ blocks.Xty), 1e-300)
            n, p = blocks.n, blocks.p
            if criterion == "REML":
                s2 = rss / (n - p)
                logdetS = 2.0 * float(np.sum(np.log(np.diag(S_cf[0]))))
                dv = (
                    (n - p) * _LOG2PI + (n - p) * math.log(s2)
                    + logdetS + rss / s2
                )
            else:
                s2 = rss / n
                dv = n * _LOG2PI + n * math.log(s2) + rss / s2
            theta_full = np.zeros(L + 1)
            theta_full[-1] = s2
            return theta_full, dv, True, it, np.ones(L, dtype=bool)
        keep_idx = np.where(keep)[0]
        sub = _restrict_blocks(blocks, keep)
        th, dv, cv, sub_it, bd = _fit_components(sub, criterion)
        theta_full = np.zeros(L + 1)
        theta_full[-1] = th[-1]
        theta_full[:L][keep] = th[:-1]
        boundary = ~keep
        boundary[keep_idx[bd]] = True
        theta_full[:L][boundary] = 0.0
        # iterations before the drop count too
        return theta_full, dv, cv, it + sub_it, boundary

    theta = np.concatenate([np.full(L, 0.5 * var_y / max(L, 1)), [0.5 * var_y]])
    it = 0

    def em_phase(theta, budget):
        nonlocal it
        for _ in range(budget):
            it += 1
            new = _em_step(blocks, theta)
            rel = np.max(np.abs(new - theta) / np.maximum(np.abs(theta), 1e-12))
            theta = new
            if (theta[:-1] < floor).any() or rel < 1e-8:
                break
        return theta

    def newton_phase(theta):
        nonlocal it
        dev = _deviance(blocks, theta, criterion)
        converged = False
        h = 1e-5
        for _ in range(_MAX_NEWTON):
            it += 1
            grad = _gradient(blocks, theta, criterion) * theta
            if np.max(np.abs(grad)) < 1e-9 * max(1.0, abs(dev)):
                converged = True
                break
            logt = np.log(theta)
            H = np.empty((L + 1, L + 1))
            for j in range(L + 1):
                e = np.zeros(L + 1)
                e[j] = h
                tp, tm = np.exp(logt + e), np.exp(logt - e)
                H[:, j] = (
                    _gradient(blocks, tp, criterion) * tp
                    - _gradient(blocks, tm, criterion) * tm
                ) / (2 * h)
            H = (H + H.T) / 2.0
            try:
                step = np.linalg.solve(H + 1e-12 * np.eye(L + 1), -grad)
            except np.linalg.LinAlgError:
                step = -grad / max(np.max(np.abs(grad)), 1.0)
            step = np.clip(step, -4.0, 4.0)
            new_theta = np.exp(logt + step)
            new_dev = _deviance(blocks, new_theta, criterion)
            halvings = 0
            while not np.isfinite(new_dev) or new_dev > dev + 1e-12:
                step /= 2.0
                new_theta = np.exp(logt + step)
                new_dev = _deviance(blocks, new_theta, criterion)
                halvings += 1
                if halvings > 25:
                    break
            moved = np.max(np.abs(np.log(new_theta) - logt))
            theta, dev = new_theta, new_dev
            if (theta[:-1] < floor).any():
                break
            if moved < 1e-11:
                grad = _gradient(blocks, theta, criterion) * theta
                converged = bool(np.max(np.abs(grad)) < 1e-6 * max(1.0, abs(dev)))
                break
        return theta, dev, converged

    theta = em_phase(theta, 100)
    if (theta[:-1] < floor).any():
        return drop_and_refit(theta[:-1] >= floor)
    theta, dev, converged = newton_phase(theta)
    if not converged and not (theta[:-1] < floor).any():
        theta = em_phase(theta, _MAX_EM - 100)
        if not (theta[:-1] < floor).any():
            theta, dev, converged = newton_phase(theta)
    if (theta[:-1] < floor).any():
        # a component converged onto the boundary; pin it at zero
        return drop_and_refit(theta[:-1] >= floor)
    boundary = np.zeros(L, dtype=bool)
    return theta, dev, converged, it, boundary


def _ols_fit(y, X, names, criterion, n_obs) -> LmmFit:
    n, p = X.shape
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    if diag.min() <= n * np.finfo(float).eps * max(diag.max(), 1.0):
        raise RankDeficient("design matrix is rank deficient")
    beta = np.linalg.solve(r, q.T @ y)
    resid = y - X @ beta
    dfree = n - p if criterion == "REML" else n
    s2 = float(resid @ resid) / max(dfree, 1)
    r_inv = np.linalg.solve(r, np.eye(p))
    se = np.sqrt(s2 * np.sum(r_inv**2, axis=1))
    ll = -0.5 * (dfree * _LOG2PI + dfree * math.log(s2) + float(resid @ resid) / s2)
    if criterion == "REML":
        ll -= 0.5 * 2.0 * np.sum(np.log(diag)) - 0.5 * p * math.log(s2)
    return LmmFit(
        names, beta, se, {"residual": s2}, ll, criterion, (), True, (), n, 0
    )


def fit_lmm(
    formula: ModelFormula | str, d: Dataset, criterion: str = "REML"
) -> LmmFit:
    """Fit a random-intercept LMM to fully observed model variables."""
    if isinstance(formula, str):
        formula = parse_formula(formula)
    if criterion not in ("REML", "ML"):
        raise ValueError("criterion must be 'REML' or 'ML'")
    y, X, names = build_design(d, formula)
    if not formula.random:
        return _ols_fit(y, X, names, criterion, d.n_rows)
    codes = grouping_codes(d, formula)
    fit = fit_lmm_arrays(y, X, codes, criterion, names=names)
    comps = {
        g: fit.var_components[f"level{k}"]
        for k, g in enumerate(formula.random)
    }
    comps["residual"] = fit.var_components["residual"]
    boundary = tuple(
        formula.random[int(b.removeprefix("level"))] for b in fit.boundary
    )
    return LmmFit(
        fit.names,
        fit.beta,
        fit.se,
        comps,
        fit.loglik,
        criterion,
        tuple(formula.random),
        fit.converged,
        boundary,
        fit.n_obs,
        fit.n_iter,
    )


def fit_lmm_arrays(
    y: np.ndarray,
    X: np.ndarray,
    codes: list[np.ndarray],
    criterion: str = "REML",
    names: list[str] | None = None,
) -> LmmFit:
    """Array-level fit; ``codes`` lists integer groupings, outermost first."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if n <= p:
        raise RankDeficient(f"need n > p, got n={n}, p={p}")
    qx, rx = np.linalg.qr(X)
    diag = np.abs(np.diag(rx))
    if diag.min() <= n * np.finfo(float).eps * max(diag.max(), 1.0):
        raise RankDeficient("design matrix is rank deficient")
    blocks = _Blocks(X, y, [np.asarray(c, dtype=int) for c in codes])
    theta, dev, converged, n_iter, boundary = _fit_components(blocks, criterion)
    # final GLS at the optimum (boundary components pinned at zero)
    live = theta[:-1] > 0
    if not live.any():
        beta = np.linalg.solve(blocks.XtX, blocks.Xty)
        cov = np.linalg.inv(blocks.XtX) * theta[-1]
    else:
        sub = blocks if live.all() else _restrict_blocks(blocks, live)
        _, beta, S_cf, *_ = _deviance_core(
            sub, theta[:-1][live], theta[-1], criterion
        )
        cov = cho_solve(S_cf, np.eye(p)) * theta[-1]
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    comps = {f"level{k}": float(theta[k]) for k in range(len(codes))}
    comps["residual"] = float(theta[-1])
    names = names or [f"x{j}" for j in range(p)]
    return LmmFit(
        list(names),
        beta,
        se,
        comps,
        -0.5 * dev,
        criterion,
        tuple(f"level{k}" for k in range(len(codes))),
        converged,
        tuple(f"level{k}" for k in np.where(boundary)[0]),
        n,
        n_iter,
    )


def deviance(
    y: np.ndarray, X: np.ndarray, codes: list[np.ndarray],
    theta: np.ndarray, criterion: str = "REML",
) -> float:
    """Exact -2 log (restricted) likelihood at the given components."""
    blocks = _Blocks(
        np.asarray(X, dtype=float),
        np.asarray(y, dtype=float),
        [np.asarray(c, dtype=int) for c in codes],
    )
    return _deviance(blocks, np.asarray(theta, dtype=float), criterion)
