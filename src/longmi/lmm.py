"""Random-intercept linear mixed models with 0, 1 or 2 nested groupings.

The residual variance has a closed form given the ratios rho_k =
sigma_k^2 / sigma_e^2, so the exact ML or REML deviance is profiled over
it and minimised by Newton over the log ratios alone (Lindstrom & Bates,
J. Am. Stat. Assoc. 83(404), 1988). V is never materialized: through the
Woodbury identity everything runs on the capacitance matrix M = Z'Z +
diag(1 / rho_k). With random intercepts each outer group's block of M is
an arrowhead (the outer intercept over a diagonal of its inner groups),
so its determinant, solves and inverse diagonal have a closed form in
per-group sums: a Schur complement on the inner diagonal, the structure
behind Henderson's mixed-model equations and lme4's profiled deviance
(Bates, Maechler, Bolker & Walker, J. Stat. Softw. 67(1), 2015). A
one-level model is the same path without the outer row, and a model
with no grouping (ordinary least squares) the same path with M empty.

Components that collapse onto the boundary are pinned at zero and
flagged; non-convergence returns the best point found with
``converged=False`` rather than raising.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np

from .errors import RankDeficient, UnsupportedNesting
from .formula import ModelFormula, build_design, grouping_codes, parse_formula
from .rng import check_rank, cho_factor, cho_solve
from .table import Dataset

_LOG2PI = math.log(2.0 * math.pi)
_MAX_NEWTON = 50


@dataclasses.dataclass
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
    where each outer group's run begins. With no grouping both lists are
    empty.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, codes: list[np.ndarray]):
        if len(codes) > 2:
            raise UnsupportedNesting(
                f"random intercepts take at most 2 nested groupings, got {len(codes)}"
            )
        self.n, self.p = X.shape
        F = np.column_stack([X, y])
        self.FtF = F.T @ F
        self.var_y = float(np.var(y))
        self.counts, self.sums = [], []
        self.up = self.starts = None
        if codes:
            self._group(F, codes)
        self.q_level = np.array([len(c) for c in self.counts], dtype=int)

    def _group(self, F: np.ndarray, codes: list[np.ndarray]) -> None:
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
        if len(codes) == 2:
            self.up = outer[first]
            self.starts = _run_starts(self.up)
            self.counts.insert(0, np.add.reduceat(inner_n, self.starts))
            self.sums.insert(0, np.add.reduceat(inner_F, self.starts, axis=0))


def _run_starts(sorted_codes: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.diff(sorted_codes, prepend=-1))


def _restrict_blocks(blocks: _Blocks, keep: np.ndarray) -> _Blocks:
    """The blocks of the levels where ``keep`` is True, alone."""
    if keep.all():
        return blocks
    sub = copy.copy(blocks)
    sub.counts = [c for c, k in zip(blocks.counts, keep) if k]
    sub.sums = [s for s, k in zip(blocks.sums, keep) if k]
    sub.up = sub.starts = None
    sub.q_level = blocks.q_level[keep]
    return sub


def _solve(blocks: _Blocks, lam: np.ndarray):
    """Closed-form pieces of M = Z'Z + diag(lam) for lam = 1 / rho.

    Each outer group's block of M is an arrowhead: the outer row over a
    diagonal d_j = n_j + lam_1 of its inner groups. With the Schur
    complement t_s = lam_0 + lam_1 * sum_j n_j / d_j, log det M is
    sum log d + sum log t, and M^-1 b solves x_s = (b_s - sum_j n_j b_j /
    d_j) / t_s, then x_j = (b_j - n_j x_s) / d_j. Returns log det M,
    F'Z M^-1 Z'F, and per level M^-1 Z'F and the diagonal of M^-1; with
    no level M is empty, so both of the first are 0.
    """
    if not blocks.counts:
        return 0.0, 0.0, [], []
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


def _deviance_core(
    blocks: _Blocks, rho: np.ndarray, criterion: str, sig_e: float | None = None
):
    """Deviance, profiled sigma_e^2, gradient, beta and chol(S) at ratios rho.

    Given rho_k = sigma_k^2 / sigma_e^2 everything but sigma_e^2 is fixed:
    with r0 = A_yy - beta'A_Xy and dof = n - p (REML) or n (ML), the
    deviance is dof (log 2 pi + log sigma_e^2) + r0 / sigma_e^2 + sum q_k
    log rho_k + log det M, plus log det S under REML, and sigma_e^2 = r0 /
    dof minimises it (the profile used when ``sig_e`` is None). The
    gradient is d(deviance)/d(sigma^2) at (rho sig_e, sig_e), residual
    last: with u = M^-1 Z'(y - X beta) and W = M^-1 Z'X, Z'V^-1 = diag(lam)
    M^-1 Z' / sig_e and Z'V^-1 Z = (lam - lam^2 M^-1) / sig_e turn its trace
    and quadratic terms into per-level sums of u^2, diag(M^-1) and
    tr(S^-1 W_k'W_k).
    """
    n, p = blocks.n, blocks.p
    reml = criterion == "REML"
    dof = n - p * reml
    lam = 1.0 / rho
    logdetM, K, sol, diag = _solve(blocks, lam)
    A = blocks.FtF - K  # [S c; c' y'y_adj], profiled over the random effects
    S_cf = cho_factor(A[:p, :p], lower=True)
    beta = cho_solve(S_cf, A[:p, p])
    s2 = max(A[p, p] - float(beta @ A[:p, p]), 1e-300) / dof
    sig_e = s2 if sig_e is None else sig_e
    dev = (
        dof * (_LOG2PI + math.log(sig_e) + s2 / sig_e)
        + float(blocks.q_level @ np.log(rho))
        + logdetM
    )
    if reml:
        dev += 2.0 * float(np.sum(np.log(np.diag(S_cf[0]))))
    usq, dsum, tw = np.empty((3, len(sol)))
    for k, (s, dg) in enumerate(zip(sol, diag)):
        W = s[:, :p]
        u = s[:, p] - W @ beta
        usq[k] = u @ u
        dsum[k] = dg.sum()
        tw[k] = np.trace(cho_solve(S_cf, W.T @ W))
    sig = rho * sig_e
    grad_sig = blocks.q_level / sig - (sig_e * (dsum + reml * tw) + usq) / sig**2
    trV_e = n - blocks.q_level.sum() + float(lam @ dsum) - reml * (p - float(lam @ tw))
    grad_e = trV_e / sig_e - (dof * s2 - float(lam @ usq)) / sig_e**2
    return dev, s2, np.append(grad_sig, grad_e), beta, S_cf


def _deviance(blocks, theta, criterion):
    return _deviance_core(blocks, theta[:-1] / theta[-1], criterion, theta[-1])[0]


def _gradient(blocks: _Blocks, theta: np.ndarray, criterion: str) -> np.ndarray:
    """d(deviance)/d(sigma^2) for each component, residual last."""
    return _deviance_core(blocks, theta[:-1] / theta[-1], criterion, theta[-1])[2]


def _fit_components(blocks: _Blocks, criterion: str):
    """Newton on the log variance ratios of the deviance profiled over
    sigma_e^2; returns (theta, deviance, converged, n_iter, boundary_mask).

    It starts at rho = 1 (lme4's default) and steps with the absolute
    eigenvalues of a central-difference Hessian, which is indefinite there
    for nested fits. On the log scale the gradient vanishes as rho_k -> 0,
    so convergence is tested on d(deviance)/d(rho). A ratio that falls
    below the floor, or whose gradient still points at zero when the loop
    stops unconverged, is checked against the fit without its level: the
    lower deviance wins, and a tie goes to the smaller model.
    """
    L = len(blocks.q_level)
    if L == 0:
        dev, s2 = _deviance_core(blocks, np.empty(0), criterion)[:2]
        return np.array([s2]), dev, True, 0, np.zeros(0, dtype=bool)
    floor = 1e-7 * max(blocks.var_y, 1e-12)

    def at(x):
        """Deviance, sigma_e^2 and d(deviance)/d(log rho) at rho = exp(x)."""
        dev, s2, grad = _deviance_core(blocks, np.exp(x), criterion)[:3]
        return dev, s2, grad[:-1] * np.exp(x) * s2

    x = np.zeros(L)
    dev, s2, g = at(x)
    tol = 1e-9 * max(1.0, abs(dev))  # on d(deviance)/d(rho)
    dev_tol = 1e-2 * tol  # above the deviance's rounding noise
    it = 0
    converged = False
    for _ in range(_MAX_NEWTON):
        it += 1
        if np.max(np.abs(g / np.exp(x))) < tol:
            converged = True
            break
        H = np.empty((L, L))
        for j, e in enumerate(1e-5 * np.eye(L)):
            H[:, j] = (at(x + e)[2] - at(x - e)[2]) / 2e-5
        w, V = np.linalg.eigh((H + H.T) / 2.0)
        step = -V @ ((V.T @ g) / np.maximum(np.abs(w), 1e-8))
        step = np.clip(step, -4.0, 4.0)
        for _ in range(26):
            new = at(x + step)
            if np.isfinite(new[0]) and new[0] <= dev + dev_tol:
                break
            step /= 2.0
        else:
            break
        x = x + step
        dev, s2, g = new
        if (np.exp(x) * s2 < floor).any() or np.max(np.abs(step)) < 1e-11:
            break
    rho = np.exp(x)
    low = (rho * s2 < floor) | ((g / rho > tol) & (not converged))
    if low.any():
        keep = np.flatnonzero(~low)
        sub = _restrict_blocks(blocks, ~low)
        th, sub_dev, sub_cv, sub_it, sub_bd = _fit_components(sub, criterion)
        theta = np.zeros(L + 1)
        theta[keep], theta[-1] = th[:-1], th[-1]
        boundary = low.copy()
        boundary[keep[sub_bd]] = True
        if sub_dev <= dev + dev_tol:
            # iterations before the drop count too
            return theta, sub_dev, sub_cv, it + sub_it, boundary
    return np.append(rho * s2, s2), dev, converged, it, np.zeros(L, dtype=bool)


def fit_lmm(
    formula: ModelFormula | str, d: Dataset, criterion: str = "REML"
) -> LmmFit:
    """Fit a random-intercept LMM to fully observed model variables."""
    if isinstance(formula, str):
        formula = parse_formula(formula)
    y, X, names = build_design(d, formula)
    fit = fit_lmm_arrays(y, X, grouping_codes(d, formula), criterion, names=names)
    group = dict(zip(fit.grouping, formula.random))
    return dataclasses.replace(
        fit,
        var_components={group.get(k, k): v for k, v in fit.var_components.items()},
        grouping=tuple(formula.random),
        boundary=tuple(group[b] for b in fit.boundary),
    )


def fit_lmm_arrays(
    y: np.ndarray,
    X: np.ndarray,
    codes: list[np.ndarray],
    criterion: str = "REML",
    names: list[str] | None = None,
) -> LmmFit:
    """Array-level fit; ``codes`` lists integer groupings, outermost first."""
    if criterion not in ("REML", "ML"):
        raise ValueError("criterion must be 'REML' or 'ML'")
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if n <= p:
        raise RankDeficient(f"need n > p, got n={n}, p={p}")
    check_rank(X)
    blocks = _Blocks(X, y, [np.asarray(c, dtype=int) for c in codes])
    theta, dev, converged, n_iter, boundary = _fit_components(blocks, criterion)
    # final GLS at the optimum (boundary components pinned at zero)
    live = theta[:-1] > 0
    *_, beta, S_cf = _deviance_core(
        _restrict_blocks(blocks, live), theta[:-1][live] / theta[-1], criterion
    )
    se = np.sqrt(np.maximum(np.diag(cho_solve(S_cf, np.eye(p)) * theta[-1]), 0.0))
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
    """Exact -2 log (restricted) likelihood at the given components.

    A zero component is scored as the fitter scores it, by the model
    without its level.
    """
    blocks = _Blocks(
        np.asarray(X, dtype=float),
        np.asarray(y, dtype=float),
        [np.asarray(c, dtype=int) for c in codes],
    )
    theta = np.asarray(theta, dtype=float)
    live = theta[:-1] > 0
    return _deviance(
        _restrict_blocks(blocks, live), np.append(theta[:-1][live], theta[-1]), criterion
    )
