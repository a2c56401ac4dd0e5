"""Random-intercept linear mixed models with 0, 1 or 2 nested groupings.

The residual variance has a closed form given the ratios rho_k =
sigma_k^2 / sigma_e^2, so the exact ML or REML deviance is profiled over
it and minimised by Newton over the log ratios alone (Lindstrom & Bates,
J. Am. Stat. Assoc. 83(404), 1988). One evaluation gives the deviance
with its gradient and its Hessian in the log ratios, both in closed
form, so a Newton step costs one evaluation; nothing is differenced. V
is never materialized: through the Woodbury identity everything runs on
the capacitance matrix M = Z'Z + diag(1 / rho_k). With random intercepts
each outer group's block of M is an arrowhead (the outer intercept over
a diagonal of its inner groups), so its determinant, solves and inverse
blocks have a closed form in per-group sums: a Schur complement on the
inner diagonal, the structure behind Henderson's mixed-model equations
and lme4's profiled deviance (Bates, Maechler, Bolker & Walker, J. Stat.
Softw. 67(1), 2015). An inner group enters only through its size and
its sums, so each sum runs over (inner size, outer group) cells rather
than over inner groups. A one-level model is the same path without the
outer row, and a model with no grouping (ordinary least squares) the
same path with M empty.

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
from .rng import chol, chol_inverse, gram_chol, group_sums
from .table import Dataset

_LOG2PI = math.log(2.0 * math.pi)
_MAX_NEWTON = 50
_POWERS = np.array([[1.0], [2.0], [3.0]])


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
    """Per-group sums of the data for nested random intercepts, by size.

    ``levels[k]`` summarises level k's groups, outermost first: the
    distinct group sizes n, how many groups have each size, and per size
    the sum of F_g F_g' (flattened) over its groups' column sums F_g of F
    = [X | y - X b0]: y is centred by its OLS fit b0 (from the rank check's
    factor), so a large mean costs no precision, and a fit's beta is b0
    plus that of the centred y; ``var_y`` is the variance of y itself.
    With two levels ``nest`` also holds, per inner size and outer group,
    the number of inner groups and the sum of their F_g, and each outer
    group's F_g. An inner group is an (outer, inner) label pair, so inner
    labels reused across outer groups still nest. With no grouping
    ``levels`` is empty.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, codes: list[np.ndarray]):
        if len(codes) > 2:
            raise UnsupportedNesting(
                f"random intercepts take at most 2 nested groupings, got {len(codes)}"
            )
        self.n, self.p = X.shape
        K = chol_inverse(gram_chol(X))
        self.b0 = K.T @ (K @ (X.T @ y))
        F = np.column_stack([X, y - X @ self.b0])
        self.FtF = F.T @ F
        self.var_y = float(np.var(y))
        self.levels, self.nest = [], None
        if codes:
            self._group(F, codes)
        self.q_level = np.array([m.sum() for _, m, _ in self.levels], dtype=int)

    def _group(self, F: np.ndarray, codes: list[np.ndarray]) -> None:
        key = codes[0]
        if len(codes) == 2:
            _, outer = np.unique(codes[0], return_inverse=True)
            _, inner = np.unique(codes[1], return_inverse=True)
            key = outer * (inner.max() + 1) + inner
        _, first, code, n_g = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        inner_F = group_sums(code, F, len(n_g))
        level, size = _by_size(n_g, inner_F)
        self.levels = [level]
        if len(codes) == 2:
            shape = len(level[0]), outer.max() + 1  # (inner size, outer group)
            cell = np.ravel_multi_index((size, outer[first]), shape)
            n_cell = np.bincount(cell, minlength=shape[0] * shape[1]).reshape(shape)
            F_cell = group_sums(cell, inner_F, n_cell.size).reshape(shape[0], -1)
            F_outer = F_cell.reshape(*shape, -1).sum(axis=0)
            self.nest = n_cell, F_cell, F_outer
            self.levels.insert(0, _by_size(level[0] @ n_cell, F_outer)[0])


def _by_size(n_g: np.ndarray, F_g: np.ndarray):
    """(distinct sizes, groups per size, per-size sum of F_g F_g') and
    each group's index into the sizes."""
    n, size = np.unique(n_g, return_inverse=True)
    one_hot = size == np.arange(len(n))[:, None]
    FF = F_g.T @ (one_hot[:, :, None] * F_g)
    return (n.astype(float), one_hot.sum(axis=1), FF.reshape(len(n), -1)), size


def _restrict_blocks(blocks: _Blocks, keep: np.ndarray) -> _Blocks:
    """The blocks of the levels where ``keep`` is True, alone."""
    if keep.all():
        return blocks
    sub = copy.copy(blocks)
    sub.levels = [lv for lv, k in zip(blocks.levels, keep) if k]
    sub.nest = None
    sub.q_level = blocks.q_level[keep]
    return sub


def _solve(blocks: _Blocks, lam: np.ndarray):
    """Closed-form pieces of M = Z'Z + diag(lam) for lam = 1 / rho.

    Each outer group's block of M is an arrowhead: the outer row over a
    diagonal d_j = n_j + lam_1 of its inner groups. With f = n / d and
    the Schur complement t_s = lam_0 + lam_1 sum_j f_j, log det M is sum
    log d + sum log t, and M^-1 b solves x_s = (b_s - sum_j f_j b_j) /
    t_s, then x_j = b_j / d_j - f_j x_s. With sol = M^-1 Z'F, sol_k its
    level-k rows and E_l the projection on level l's rows, returns log
    det M, F'Z sol, and per level G_k = sol_k'sol_k, per pair C_kl =
    sol_k'(M^-1 E_l sol)_k and N_kl = ||(M^-1)_kl||_F^2, and per level
    tr (M^-1)_kk. As d depends on a group's size alone, each is a sum
    over (inner size, outer group) cells, never over inner groups.
    """
    P = blocks.p + 1
    if not blocks.levels:
        return (
            0.0, 0.0, np.zeros((0, P, P)), np.zeros((0, 0, P, P)), np.zeros((0, 0)),
            np.zeros(0),
        )
    n, m, FF = blocks.levels[-1]
    w = 1.0 / (n + lam[-1])
    ww = w ** _POWERS  # w, w^2, w^3 per inner size
    K, G1, C1 = (ww @ FF).reshape(3, P, P)
    dsum1, N1, _ = ww @ m
    logdet = -float(m @ np.log(w))
    if blocks.nest is None:
        return logdet, K, G1[None], C1[None, None], np.array([[N1]]), np.array([dsum1])
    n_cell, F_cell, F_outer = blocks.nest
    # sol_j = F_j / d_j - f_j sol0_s, so each product summed over the inner
    # groups of s is one of F_j weighted by f w^k, f^2 w^k or 1, per cell
    f = n * w
    sf, phi, phi2 = np.array([f, f * f, f * f * w]) @ n_cell
    fF, H, H2 = ((n * ww) @ F_cell).reshape(3, -1, P)  # f w^k = n w^(k+1)
    t = lam[0] + lam[1] * sf
    it = 1.0 / t
    R = F_outer - fF
    sol0 = R * it[:, None]
    Gf = H - phi[:, None] * sol0  # sum_j f_j sol_j per outer group
    s0T = sol0.T
    HS, H2S = s0T @ H, s0T @ H2
    C01 = -s0T @ (it[:, None] * Gf)
    C11 = C1 + s0T @ (phi2[:, None] * sol0) - H2S - H2S.T + Gf.T @ (it[:, None] * Gf)
    N01 = phi @ (it * it)
    return (
        logdet + float(np.log(t).sum()),
        K + R.T @ sol0,
        np.array([s0T @ sol0, G1 + s0T @ (phi[:, None] * sol0) - HS - HS.T]),
        np.array([[s0T @ (it[:, None] * sol0), C01], [C01.T, C11]]),
        np.array([[it @ it, N01], [N01, N1 + 2.0 * phi2 @ it + (phi * it) @ (phi * it)]]),
        np.array([it.sum(), dsum1 + phi @ it]),
    )


def _deviance_core(
    blocks: _Blocks, rho: np.ndarray, criterion: str, sig_e: float | None = None
):
    """Deviance, profiled sigma_e^2, gradient, beta, S^-1 and Hessian at rho.

    Given rho_k = sigma_k^2 / sigma_e^2 everything but sigma_e^2 is fixed:
    with r0 = A_yy - beta'A_Xy and dof = n - p (REML) or n (ML), the
    deviance is dof (log 2 pi + log sigma_e^2) + r0 / sigma_e^2 + sum q_k
    log rho_k + log det M, plus log det S under REML, and sigma_e^2 = r0 /
    dof minimises it (the profile used when ``sig_e`` is None). The
    gradient is d(deviance)/d(sigma^2) at (rho sig_e, sig_e), residual
    last: with u = M^-1 Z'(y - X beta) and W = M^-1 Z'X, Z'V^-1 = diag(lam)
    M^-1 Z' / sig_e and Z'V^-1 Z = (lam - lam^2 M^-1) / sig_e turn its trace
    and quadratic terms into per-level sums of u^2, diag(M^-1) and
    tr(S^-1 W_k'W_k). On the profile, in x = log rho, the gradient is g_k
    = q_k - lam_k a_k with a_k = tr(M^-1)_kk + |u_k|^2 / s2 [+ tr(S^-1
    W_k'W_k) under REML], and as dM/dx_l = -lam_l E_l the Hessian is
    delta_kl lam_k a_k - lam_k lam_l T_kl (Lindstrom & Bates 1988) with
    T_kl = N_kl + 2 (u_k'(M^-1 E_l u)_k + (W_k'u_k)'S^-1 (W_l'u_l)) / s2 +
    |u_k|^2 |u_l|^2 / (dof s2^2) [+ tr(S^-1 W_l'W_l S^-1 W_k'W_k) + 2
    tr(S^-1 W_k'(M^-1 E_l W)_k)]. As u and W are sol times c = (-beta,
    1) and the first p unit vectors, each term contracts G or C.
    """
    n, p = blocks.n, blocks.p
    reml = criterion == "REML"
    dof = n - p * reml
    lam = 1.0 / rho
    logdetM, K, G, C, N, dsum = _solve(blocks, lam)
    A = blocks.FtF - K  # [S c; c' y'y_adj], profiled over the random effects
    L_inv = chol_inverse(chol(A[:p, :p]))
    S_inv = L_inv.T @ L_inv
    beta = L_inv.T @ (L_inv @ A[:p, p])
    s2 = max(A[p, p] - float(beta @ A[:p, p]), 1e-300) / dof
    sig_e = s2 if sig_e is None else sig_e
    dev = (
        dof * (_LOG2PI + math.log(sig_e) + s2 / sig_e)
        + float(blocks.q_level @ np.log(rho))
        + logdetM
    )
    if reml:
        dev -= 2.0 * float(np.log(L_inv.diagonal()).sum())
    c = np.concatenate((-beta, [1.0]))
    Gc = G @ c
    usq, Wu = Gc @ c, Gc[:, :p]
    SW = S_inv @ G[:, :p, :p]  # S^-1 W_k'W_k
    tw = np.einsum("kii->k", SW)
    sig = rho * sig_e
    grad_sig = blocks.q_level / sig - (sig_e * (dsum + reml * tw) + usq) / sig**2
    trV_e = n - blocks.q_level.sum() + float(lam @ dsum) - reml * (p - float(lam @ tw))
    grad_e = trV_e / sig_e - (dof * s2 - float(lam @ usq)) / sig_e**2
    T = N + 2.0 * ((C @ c) @ c + Wu @ S_inv @ Wu.T) / s2
    T += usq[:, None] * usq / (dof * s2 * s2)
    if reml:
        T += np.einsum("kij,lji->kl", SW, SW)
        T += 2.0 * np.einsum("ij,klji->kl", S_inv, C[..., :p, :p])
    hess = np.diag(lam * (dsum + usq / s2 + reml * tw)) - lam[:, None] * lam * T
    return dev, s2, np.append(grad_sig, grad_e), beta, S_inv, hess


def _deviance(blocks, theta, criterion):
    return _deviance_core(blocks, theta[:-1] / theta[-1], criterion, theta[-1])[0]


def _gradient(blocks: _Blocks, theta: np.ndarray, criterion: str) -> np.ndarray:
    """d(deviance)/d(sigma^2) for each component, residual last."""
    return _deviance_core(blocks, theta[:-1] / theta[-1], criterion, theta[-1])[2]


def _fit_components(blocks: _Blocks, criterion: str):
    """Newton on the log variance ratios of the deviance profiled over
    sigma_e^2; returns (theta, deviance, converged, n_iter, boundary_mask,
    beta, S^-1), the last two from the GLS at the returned point.

    It starts at rho = 1 (lme4's default) and steps with the absolute
    eigenvalues of the analytic Hessian from ``_deviance_core``, which is
    indefinite there for nested fits, so each step costs one evaluation
    plus any halvings. A step longer than 4 in some log ratio is scaled
    down whole, keeping its descent direction. On the log scale the gradient vanishes as rho_k ->
    0, so convergence is tested on d(deviance)/d(rho). A ratio that falls
    below the floor, or whose gradient still points at zero when the loop
    stops unconverged, is checked against the fit without its level: the
    lower deviance wins, and a tie goes to the smaller model.
    """
    L = len(blocks.q_level)
    if L == 0:
        dev, s2, _, beta, S_inv, _ = _deviance_core(blocks, np.empty(0), criterion)
        return np.array([s2]), dev, True, 0, np.zeros(0, dtype=bool), beta, S_inv
    floor = 1e-7 * max(blocks.var_y, 1e-12)

    def at(x):
        """Deviance, sigma_e^2, d(deviance)/d(log rho), its Hessian, beta
        and S^-1 at rho = exp(x)."""
        dev, s2, grad, beta, S_inv, hess = _deviance_core(blocks, np.exp(x), criterion)
        return dev, s2, grad[:-1] * np.exp(x) * s2, hess, beta, S_inv

    x = np.zeros(L)
    ev = at(x)
    dev, s2, g, H = ev[:4]
    tol = 1e-9 * max(1.0, abs(dev))  # on d(deviance)/d(rho)
    dev_tol = 1e-2 * tol  # above the deviance's rounding noise
    it = 0
    converged = False
    for _ in range(_MAX_NEWTON):
        it += 1
        if np.max(np.abs(g / np.exp(x))) < tol:
            converged = True
            break
        w, V = np.linalg.eigh((H + H.T) / 2.0)
        step = -V @ ((V.T @ g) / np.maximum(np.abs(w), 1e-8))
        step *= 4.0 / max(4.0, np.max(np.abs(step)))
        for _ in range(26):
            new = at(x + step)
            if np.isfinite(new[0]) and new[0] <= dev + dev_tol:
                break
            step /= 2.0
        else:
            break
        x = x + step
        ev = new
        dev, s2, g, H = ev[:4]
        if (np.exp(x) * s2 < floor).any() or np.max(np.abs(step)) < 1e-11:
            break
    rho = np.exp(x)
    low = (rho * s2 < floor) | ((g / rho > tol) & (not converged))
    if low.any():
        keep = np.flatnonzero(~low)
        sub = _restrict_blocks(blocks, ~low)
        th, sub_dev, sub_cv, sub_it, sub_bd, *gls = _fit_components(sub, criterion)
        theta = np.zeros(L + 1)
        theta[keep], theta[-1] = th[:-1], th[-1]
        boundary = low.copy()
        boundary[keep[sub_bd]] = True
        if sub_dev <= dev + dev_tol:
            # iterations before the drop count too
            return theta, sub_dev, sub_cv, it + sub_it, boundary, *gls
    return np.append(rho * s2, s2), dev, converged, it, np.zeros(L, dtype=bool), *ev[4:]


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
    blocks = _Blocks(X, y, [np.asarray(c, dtype=int) for c in codes])
    theta, dev, converged, n_iter, boundary, beta, S_inv = _fit_components(
        blocks, criterion
    )
    se = np.sqrt(np.maximum(np.diag(S_inv) * theta[-1], 0.0))
    comps = {f"level{k}": float(theta[k]) for k in range(len(codes))}
    comps["residual"] = float(theta[-1])
    names = names or [f"x{j}" for j in range(p)]
    return LmmFit(
        list(names),
        blocks.b0 + beta,
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
