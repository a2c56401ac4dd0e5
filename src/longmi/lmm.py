"""Random-intercept linear mixed models with 0, 1 or 2 nested groupings.

The residual variance has a closed form given the ratios rho_k =
sigma_k^2 / sigma_e^2, so the exact ML or REML deviance is profiled over
it and minimised by Newton over the ratios alone (Lindstrom & Bates, J.
Am. Stat. Assoc. 83(404), 1988). One evaluation gives the deviance with
its gradient and its Hessian in the ratios, both in closed form, so a
Newton step costs one evaluation; nothing is differenced. V = I + sum_k
rho_k Z_k Z_k', the covariance over sigma_e^2, is never materialized:
with random intercepts each outer group's block of I + diag(rho) Z'Z is
an arrowhead (the outer intercept over a diagonal of its inner groups),
so its determinant and the products of V^-1 have a closed form in
per-group sums: a Schur complement on the inner diagonal, the structure
behind Henderson's mixed-model equations and lme4's profiled deviance
(Bates, Maechler, Bolker & Walker, J. Stat. Softw. 67(1), 2015). Every
piece is finite at rho_k = 0, where level k drops out, so a fit on the
boundary is a point of the same function. An inner group enters only
through its size and its sums, so each sum runs over (inner size, outer
group) cells rather than over inner groups. A one-level model is the
same path without the outer row, and a model with no grouping (ordinary
least squares) the same path with no rows.

A ratio that collapses onto the boundary is held at exactly zero and
flagged; non-convergence returns the best point found with
``converged=False`` rather than raising.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import RankDeficient, UnsupportedNesting
from .formula import ModelFormula, build_design, grouping_codes, parse_formula
from .rng import chol, chol_inverse, gram_chol, group_sums
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
    """Per-group sums of the data for nested random intercepts, by size.

    ``inner`` summarises the innermost level's groups: the distinct group
    sizes n, how many groups have each size, and per size the sum of F_g
    F_g' (flattened) over its groups' column sums F_g of F = [X | y - X
    b0]: y is centred by its OLS fit b0 (from the rank check's factor),
    so a large mean costs no precision, and a fit's beta is b0 plus that
    of the centred y; ``var_y`` is the variance of y itself. With two
    levels ``nest`` also holds, per inner size and outer group, the
    number of inner groups and the sum of their F_g. An inner group is
    an (outer, inner) label pair, so inner labels reused across outer
    groups still nest. With no grouping ``inner`` is None.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, codes: list[np.ndarray]):
        if len(codes) > 2:
            raise UnsupportedNesting(
                f"random intercepts take at most 2 nested groupings, got {len(codes)}"
            )
        self.n, self.p = X.shape
        self.n_levels = len(codes)
        K = chol_inverse(gram_chol(X))
        self.b0 = K.T @ (K @ (X.T @ y))
        F = np.column_stack([X, y - X @ self.b0])
        self.FtF = F.T @ F
        self.var_y = float(np.var(y))
        self.inner, self.nest = None, None
        if codes:
            self._group(F, codes)

    def _group(self, F: np.ndarray, codes: list[np.ndarray]) -> None:
        key = codes[0]
        if len(codes) == 2:
            _, outer = np.unique(codes[0], return_inverse=True)
            _, inner = np.unique(codes[1], return_inverse=True)
            key = outer * (inner.max() + 1) + inner
        _, first, code, n_g = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        F_g = group_sums(code, F, len(n_g))
        n, size = np.unique(n_g, return_inverse=True)
        one_hot = size == np.arange(len(n))[:, None]
        FF = F_g.T @ (one_hot[:, :, None] * F_g)
        self.inner = n.astype(float), one_hot.sum(axis=1), FF.reshape(len(n), -1)
        if len(codes) == 2:
            shape = len(n), outer.max() + 1  # (inner size, outer group)
            cell = np.ravel_multi_index((size, outer[first]), shape)
            n_cell = np.bincount(cell, minlength=shape[0] * shape[1]).reshape(shape)
            F_cell = group_sums(cell, F_g, n_cell.size).reshape(shape[0], -1)
            self.nest = n_cell, F_cell


def _solve(blocks: _Blocks, rho: np.ndarray):
    """Closed-form pieces of V = I + sum_k rho_k Z_k Z_k' for rho >= 0.

    Each outer group's block of I + diag(rho) Z'Z is an arrowhead: the
    outer row over a diagonal d_j = 1 + rho_1 n_j of its inner groups.
    With f = n / d and the Schur complement t_s = 1 + rho_0 sum_j f_j,
    log det V is sum log d + sum log t, and with sums per outer group
    Z_0'V^-1 F = sum_j F_j / d_j / t_s and Z_j'V^-1 F = F_j / d_j - rho_0
    f_j Z_0'V^-1 F, while Z'V^-1 Z has the blocks sum_j f_j / t_s, f_j /
    t_s and diag(f) - rho_0 f f' / t_s. With U = Z'V^-1 F, U_k its level-k
    rows and B = Z'V^-1 Z, returns log det V, F'F - F'V^-1 F, and per
    level G_k = U_k'U_k, per pair C_kl = U_k'B_kl U_l and N_kl =
    ||B_kl||_F^2, and per level tr B_kk. A zero rho_k drops level k: d or
    t is 1. As d depends on a group's size alone, each is a sum over
    (inner size, outer group) cells, never over inner groups.
    """
    P = blocks.p + 1
    if blocks.inner is None:
        return (
            0.0, 0.0, np.zeros((0, P, P)), np.zeros((0, 0, P, P)), np.zeros((0, 0)),
            np.zeros(0),
        )
    n, m, FF = blocks.inner
    w = 1.0 / (1.0 + rho[-1] * n)
    f = n * w
    K, G1, C1 = (np.array([rho[-1] * w, w * w, f * w * w]) @ FF).reshape(3, P, P)
    dsum1, N1 = m @ f, m @ (f * f)
    logdet = -float(m @ np.log(w))
    if blocks.nest is None:
        return logdet, K, G1[None], C1[None, None], np.array([[N1]]), np.array([dsum1])
    n_cell, F_cell = blocks.nest
    r0 = rho[0]
    sf, phi, phi3 = np.array([f, f * f, f * f * f]) @ n_cell
    # U_j = F_j w_j - r0 f_j U_0s, so each product summed over the inner
    # groups of s is one of F_j weighted by w, f w or f^2 w, per cell
    R, H, H2 = (np.array([w, f * w, f * f * w]) @ F_cell).reshape(3, -1, P)
    t = 1.0 + r0 * sf
    it = 1.0 / t
    U0 = R * it[:, None]
    Gf = H - r0 * phi[:, None] * U0  # sum_j f_j U_j per outer group
    U0T = U0.T
    HU, H2U = U0T @ H, U0T @ H2
    C01 = U0T @ (it[:, None] * Gf)
    C11 = (
        C1 - r0 * (H2U + H2U.T) + r0 * r0 * U0T @ (phi3[:, None] * U0)
        - r0 * Gf.T @ (it[:, None] * Gf)
    )
    b00 = sf * it  # B_00 per outer group
    G11 = G1 - r0 * (HU + HU.T) + r0 * r0 * U0T @ (phi[:, None] * U0)
    N01 = phi @ (it * it)
    N11 = N1 - 2.0 * r0 * phi3 @ it + r0 * r0 * (phi * it) @ (phi * it)
    return (
        logdet + float(np.log(t).sum()),
        K + r0 * R.T @ U0,
        np.array([U0T @ U0, G11]),
        np.array([[U0T @ (b00[:, None] * U0), C01], [C01.T, C11]]),
        np.array([[b00 @ b00, N01], [N01, N11]]),
        np.array([b00.sum(), dsum1 - r0 * phi @ it]),
    )


def _deviance_core(
    blocks: _Blocks, rho: np.ndarray, criterion: str, sig_e: float | None = None
):
    """Deviance, profiled sigma_e^2, gradient, beta, S^-1 and Hessian at rho.

    Given rho_k = sigma_k^2 / sigma_e^2 >= 0 everything but sigma_e^2 is
    fixed: with V = I + sum_k rho_k Z_k Z_k', r0 = A_yy - beta'A_Xy for A =
    F'V^-1 F and dof = n - p (REML) or n (ML), the deviance is dof (log 2
    pi + log sigma_e^2) + r0 / sigma_e^2 + log det V, plus log det S under
    REML, and sigma_e^2 = r0 / dof minimises it (the profile used when
    ``sig_e`` is None). The gradient is d(deviance)/d(rho) at sigma_e^2:
    with v = Z'V^-1 (y - X beta) and W = Z'V^-1 X it is g_k = tr B_kk -
    |v_k|^2 / sigma_e^2 [- tr(S^-1 W_k'W_k) under REML]. As dV/drho_l =
    Z_l Z_l' the Hessian of the profiled deviance is 2 (v_k'B_kl v_l -
    (W_k'v_k)'S^-1 (W_l'v_l)) / s2 - N_kl - |v_k|^2 |v_l|^2 / (dof s2^2)
    [+ 2 tr(S^-1 W_k'B_kl W_l) - tr(S^-1 W_k'W_k S^-1 W_l'W_l)]. As v and
    W are U times c = (-beta, 1) and the first p unit vectors, each term
    contracts G or C. All are finite at rho_k = 0.
    """
    n, p = blocks.n, blocks.p
    reml = criterion == "REML"
    dof = n - p * reml
    logdetV, K, G, C, N, dsum = _solve(blocks, rho)
    A = blocks.FtF - K  # [S c; c' y'y_adj], profiled over the random effects
    L_inv = chol_inverse(chol(A[:p, :p]))
    S_inv = L_inv.T @ L_inv
    beta = L_inv.T @ (L_inv @ A[:p, p])
    s2 = max(A[p, p] - float(beta @ A[:p, p]), 1e-300) / dof
    sig_e = s2 if sig_e is None else sig_e
    dev = dof * (_LOG2PI + math.log(sig_e) + s2 / sig_e) + logdetV
    if reml:
        dev -= 2.0 * float(np.log(L_inv.diagonal()).sum())
    c = np.concatenate((-beta, [1.0]))
    Gc = G @ c
    usq, Wu = Gc @ c, Gc[:, :p]
    SW = S_inv @ G[:, :p, :p]  # S^-1 W_k'W_k
    tw = np.einsum("kii->k", SW)
    grad = dsum - usq / sig_e - reml * tw
    hess = 2.0 * ((C @ c) @ c - Wu @ S_inv @ Wu.T) / s2 - N
    hess -= usq[:, None] * usq / (dof * s2 * s2)
    if reml:
        hess += 2.0 * np.einsum("ij,klji->kl", S_inv, C[..., :p, :p])
        hess -= np.einsum("kij,lji->kl", SW, SW)
    return dev, s2, grad, beta, S_inv, hess


def _deviance(blocks, theta, criterion):
    return _deviance_core(blocks, theta[:-1] / theta[-1], criterion, theta[-1])[0]


def _gradient(blocks: _Blocks, theta: np.ndarray, criterion: str) -> np.ndarray:
    """d(deviance)/d(sigma^2) for each component, residual last."""
    sig_e = theta[-1]
    rho = theta[:-1] / sig_e
    _, s2, g = _deviance_core(blocks, rho, criterion, sig_e)[:3]
    dof = blocks.n - blocks.p * (criterion == "REML")
    return np.append(g, dof * (1.0 - s2 / sig_e) - rho @ g) / sig_e


def _fit_components(blocks: _Blocks, criterion: str):
    """Newton on the log variance ratios of the deviance profiled over
    sigma_e^2, holding at zero any ratio that falls below the floor;
    returns (theta, deviance, converged, n_iter, boundary_mask, beta,
    S^-1), the last two from the GLS at the returned point.

    It starts at rho = 1 (lme4's default) and steps the free ratios in x
    = log rho with the absolute eigenvalues of the Hessian diag(rho)
    H_rho diag(rho) + diag(rho g_rho), which is indefinite there for
    nested fits, so each step costs one evaluation plus any halvings. A
    step longer than 4 in some log ratio is scaled down whole, keeping
    its descent direction. A ratio whose component ends a step below
    1e-7 var(y) is set to exactly zero, where its level drops out of the
    same deviance, and held there. Converged means d(deviance)/d(rho) is
    below tol on the free ratios and at least -tol on the held ones (the
    bound's KKT condition).
    """
    L = blocks.n_levels
    rho = np.ones(L)
    dev, s2, g, beta, S_inv, H = _deviance_core(blocks, rho, criterion)
    if L == 0:
        return np.array([s2]), dev, True, 0, np.zeros(0, dtype=bool), beta, S_inv
    floor = 1e-7 * max(blocks.var_y, 1e-12)
    held = np.zeros(L, dtype=bool)
    tol = 1e-9 * max(1.0, abs(dev))  # on d(deviance)/d(rho)
    dev_tol = 1e-2 * tol  # above the deviance's rounding noise
    it = 0
    converged = False
    for _ in range(_MAX_NEWTON):
        it += 1
        free = ~held
        if np.all(np.abs(g[free]) < tol):
            converged = bool(np.all(g[held] >= -tol))
            break
        r, gr = rho[free], g[free]
        Hx = r[:, None] * H[np.ix_(free, free)] * r + np.diag(r * gr)
        w, V = np.linalg.eigh((Hx + Hx.T) / 2.0)
        step = -V @ ((V.T @ (r * gr)) / np.maximum(np.abs(w), 1e-8))
        step *= 4.0 / max(4.0, np.max(np.abs(step)))
        trial = rho.copy()
        for _ in range(26):
            trial[free] = r * np.exp(step)
            new = _deviance_core(blocks, trial, criterion)
            if np.isfinite(new[0]) and new[0] <= dev + dev_tol:
                break
            step /= 2.0
        else:
            break
        rho = trial
        dev, s2, g, beta, S_inv, H = new
        low = rho * s2 < floor
        if (low & free).any():
            rho[low], held = 0.0, held | low
            dev, s2, g, beta, S_inv, H = _deviance_core(blocks, rho, criterion)
        elif np.max(np.abs(step)) < 1e-11:
            break
    return np.append(rho * s2, s2), dev, converged, it, held, beta, S_inv


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
        tuple(f"level{k}" for k in np.flatnonzero(boundary)),
        n,
        n_iter,
    )


def deviance(
    y: np.ndarray, X: np.ndarray, codes: list[np.ndarray],
    theta: np.ndarray, criterion: str = "REML",
) -> float:
    """Exact -2 log (restricted) likelihood at the given components; a
    zero component drops its level."""
    blocks = _Blocks(
        np.asarray(X, dtype=float),
        np.asarray(y, dtype=float),
        [np.asarray(c, dtype=int) for c in codes],
    )
    return _deviance(blocks, np.asarray(theta, dtype=float), criterion)
