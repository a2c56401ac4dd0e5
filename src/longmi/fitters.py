"""Regression machinery shared by the chained-equation imputers.

Linear fits come with posterior parameter draws (for proper
imputation); logistic and proportional-odds fits return the MLE with
its asymptotic covariance, from which imputers draw approximate
posterior parameters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCategory, NotPositiveDefinite, PerfectSeparation, RankDeficient
from .rng import RngStream, chol, chol_inverse, expit, gram_chol

_SIGMA2_FLOOR = 1e-10
_MAX_ITER = 100  # Newton steps of a logistic or ordinal fit


def _settled(step) -> bool:
    """Whether the last Newton step a fit took before stopping is small
    enough to call it converged.

    Under quasi-separation the score, the likelihood change and the
    information all fade like exp(-|coefficient|) while the Newton step
    stays near 1, so those stopping rules fire on a fit that is still
    diverging; only the step tells the two apart.
    """
    return bool(np.max(np.abs(step), initial=0.0) < 1e-3)


@dataclass
class LinearDraw:
    """OLS estimate plus one proper-imputation parameter draw."""

    beta_hat: np.ndarray
    beta_draw: np.ndarray
    sigma2_draw: float


def fit_linear_and_draw(rng: RngStream, X: np.ndarray, y: np.ndarray) -> LinearDraw:
    """OLS fit with sigma2 drawn from its scaled inverse-chi-square
    posterior and beta from N(beta_hat, sigma2_draw K'K), K'K = (X'X)^-1
    for K the inverse of X'X's Cholesky factor; one refinement on its
    residual gives beta_hat about the accuracy of a QR solve."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n <= p:
        raise RankDeficient(f"need n > p, got n={n}, p={p}")
    K = chol_inverse(gram_chol(X))
    beta_hat = K.T @ (K @ (X.T @ y))
    resid = y - X @ beta_hat
    beta_hat += K.T @ (K @ (X.T @ resid))
    resid = y - X @ beta_hat
    s2 = float(resid @ resid) / (n - p)
    if s2 < _SIGMA2_FLOOR:
        warnings.warn("residual variance ~ 0; flooring for the draw", stacklevel=2)
        s2 = _SIGMA2_FLOOR
    sigma2_draw = (n - p) * s2 / rng.chisquare(n - p)
    beta_draw = beta_hat + np.sqrt(sigma2_draw) * (K.T @ rng.normal(size=p))
    return LinearDraw(beta_hat, beta_draw, float(sigma2_draw))


@dataclass
class GlmFit:
    """MLE, asymptotic covariance and convergence record."""

    beta_hat: np.ndarray
    cov_hat: np.ndarray
    converged: bool
    loglik: float
    n_cutpoints: int = 0


def _inverse_information(info: np.ndarray) -> np.ndarray:
    """inv(info) as K'K for K the inverse of its Cholesky factor, or
    ``PerfectSeparation`` if info is not finite and positive definite."""
    if np.isfinite(info).all():  # numpy's Cholesky passes NaN through
        try:
            K = chol_inverse(chol(info))
            return K.T @ K
        except NotPositiveDefinite:
            pass
    raise PerfectSeparation("information matrix singular at optimum")


def _logistic_loglik(y, eta):
    # log expit / log(1-expit) computed stably
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def fit_logistic(X: np.ndarray, y: np.ndarray) -> GlmFit:
    """Logistic MLE by iteratively reweighted least squares.

    Stops when max |score| < 1e-8 or the relative log-likelihood change
    is < 1e-10, and counts as converged only if the last Newton step
    was below 1e-3. Step-halving keeps the likelihood monotone.
    Divergence of the coefficients (|beta| > 30 while the score still
    points outward) is reported as separation.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("logistic response must be 0/1")
    gram_chol(X)
    n, p = X.shape
    beta = np.zeros(p)
    eta = X @ beta
    ll = _logistic_loglik(y, eta)
    step = np.zeros(p)
    converged = False
    for _ in range(_MAX_ITER):
        mu = expit(eta)
        w = mu * (1 - mu)
        score = X.T @ (y - mu)
        if np.max(np.abs(score)) < 1e-8:
            converged = _settled(step)
            break
        info = (X * w[:, None]).T @ X
        try:
            step = np.linalg.solve(info + 1e-12 * np.eye(p), score)
        except np.linalg.LinAlgError:
            raise PerfectSeparation("information matrix singular") from None
        eta = X @ (beta + step)
        new_ll = _logistic_loglik(y, eta)
        halvings = 0
        while new_ll < ll and halvings < 30:
            step /= 2.0
            eta = X @ (beta + step)
            new_ll = _logistic_loglik(y, eta)
            halvings += 1
        beta = beta + step
        assert new_ll >= ll - 1e-9, "IRLS log-likelihood decreased"
        if np.max(np.abs(beta)) > 30 and np.max(np.abs(score)) > 1e-4:
            raise PerfectSeparation("coefficients diverging; data separated")
        if abs(new_ll - ll) < 1e-10 * (abs(ll) + 1e-10):
            ll = new_ll
            converged = _settled(step)
            break
        ll = new_ll
    ll_final = _logistic_loglik(y, eta)  # eta = X beta at every exit
    if ll_final > -1e-8 * n:
        # only separated or degenerate data push the likelihood to 0
        raise PerfectSeparation("response is perfectly predicted; MLE diverges")
    mu = expit(eta)
    w = np.maximum(mu * (1 - mu), 1e-12)
    info = (X * w[:, None]).T @ X
    return GlmFit(beta, _inverse_information(info), converged, ll_final)


def _polr_terms(X, yk, K, cut, beta, level=None):
    """Log-likelihood, score and observed information in (cut, beta) coords.

    Row i adds log pi, pi = F(a_u) - F(a_l) with a = cut - x beta at its
    upper cutpoint y and lower one y - 1 (F(a_u) = 1 on the top level,
    F(a_l) = 0 on the bottom one), F = expit, f = F(1 - F), f' = f(1 - 2F).
    With s = f / pi and r = f' / pi, minus the Hessian of log pi in
    (a_u, a_l) is [[s_u^2 - r_u, -s_u s_l], [-s_u s_l, s_l^2 + r_l]]
    (McCullagh 1980); d a / d beta = -x. ``level`` is the (K, n) 0/1
    indicator of yk == k, built here when not given.
    """
    p = X.shape[1]
    k1 = K - 1
    gu, gl = expit(np.concatenate([[-np.inf], cut, [np.inf]])[[yk + 1, yk]] - X @ beta)
    pi = np.maximum(gu - gl, 1e-300)
    ll = float(np.sum(np.log(pi)))
    su = gu * (1 - gu) / pi  # 0 on the top level
    sl = gl * (1 - gl) / pi  # 0 on the bottom level
    w_uu = su * (su - (1 - 2 * gu))
    w_ll = sl * (sl + (1 - 2 * gl))
    w_ul = -su * sl
    if level is None:
        level = (yk == np.arange(K)[:, None]).astype(float)
    up, lo = level[:k1], level[1:]  # rows whose upper / lower cutpoint is j
    off = (lo @ w_ul)[:-1]
    info = np.empty((k1 + p, k1 + p))
    info[:k1, :k1] = np.diag(up @ w_uu + lo @ w_ll) + np.diag(off, 1) + np.diag(off, -1)
    info[:k1, k1:] = -((up * (w_uu + w_ul)) @ X + (lo * (w_ul + w_ll)) @ X)
    info[k1:, :k1] = info[:k1, k1:].T
    info[k1:, k1:] = (X * (w_uu + 2 * w_ul + w_ll)[:, None]).T @ X
    score = np.concatenate([up @ su - lo @ sl, X.T @ (sl - su)])
    return ll, score, info


def _polr_theta_to_nat(theta, k1):
    # (c1, log gaps, beta) -> (cutpoints, beta); keeps cuts increasing
    cut = np.concatenate([[theta[0]], theta[0] + np.cumsum(np.exp(theta[1:k1]))])
    return cut, theta[k1:]


def _polr_theta_terms(X, yk, K, theta, level=None):
    """-loglik with its gradient and Hessian in theta = (c1, log gaps, beta).

    J = d(cut, beta) / d theta maps the score and information; since
    d2 cut_i / d theta_j^2 = exp(theta_j) for i >= j, each log gap's own
    gradient is added to its diagonal entry.
    """
    k1 = K - 1
    ll, score, info = _polr_terms(X, yk, K, *_polr_theta_to_nat(theta, k1), level)
    gaps = np.arange(1, k1)
    J = np.eye(theta.size)
    J[:k1, :k1] = np.tril(np.ones((k1, k1))) * np.exp(np.r_[0.0, theta[gaps]])
    g = -J.T @ score
    H = J.T @ info @ J
    H[gaps, gaps] += g[gaps]
    return -ll, g, H


def fit_polr(X: np.ndarray, y: np.ndarray) -> GlmFit:
    """Proportional-odds MLE: P(y <= k) = expit(cut_k - x beta).

    ``y`` holds 0-based ordinal codes; every level must be observed.
    Newton in (first cutpoint, log gaps, beta) coordinates with the
    analytic score and observed information (mapped by the chain rule),
    and step-halving; the log-gap transform keeps cutpoints increasing.
    As in ``fit_logistic``, a stop right after a Newton step of 1e-3 or
    more is not converged.
    The covariance is the inverse information in (cut, beta) coordinates;
    an information that is not positive definite at the optimum raises
    ``PerfectSeparation``.
    """
    X = np.asarray(X, dtype=float)
    yk = np.asarray(y).astype(int)
    K = int(yk.max()) + 1
    counts = np.bincount(yk, minlength=K)
    if K < 2 or (counts == 0).any():
        raise EmptyCategory(f"every ordinal level needs observations, counts={counts}")
    # drop constant columns: cutpoints play the intercept role
    keep = ~np.all(X == X[0], axis=0)
    Xr = X[:, keep]
    gram_chol(np.column_stack([np.ones(len(yk)), Xr]))
    level = (yk == np.arange(K)[:, None]).astype(float)
    p = Xr.shape[1]
    k1 = K - 1
    m = k1 + p
    cum = np.cumsum(counts)[:-1] / len(yk)
    cut0 = np.log(cum / (1 - cum))
    theta = np.concatenate([[cut0[0]], np.log(np.diff(cut0))]) if k1 > 1 else cut0.copy()
    theta = np.concatenate([theta, np.zeros(p)])
    f, g, H = _polr_theta_terms(Xr, yk, K, theta, level)
    step = np.zeros(m)
    converged = False
    for _ in range(_MAX_ITER):
        if np.max(np.abs(g)) < 1e-8:
            converged = _settled(step)
            break
        try:
            step = np.linalg.solve(H + 1e-10 * np.eye(m), -g)
        except np.linalg.LinAlgError:
            step = -g
        new = _polr_theta_terms(Xr, yk, K, theta + step, level)
        halvings = 0
        while not np.isfinite(new[0]) or new[0] > f:
            step /= 2.0
            new = _polr_theta_terms(Xr, yk, K, theta + step, level)
            halvings += 1
            if halvings > 40:
                break
        theta = theta + step
        stalled = abs(f - new[0]) < 1e-12 * (abs(f) + 1e-12)
        f, g, H = new
        if stalled:
            converged = np.max(np.abs(g)) < 1e-6 and _settled(step)
            break
        if np.max(np.abs(theta)) > 40:
            raise PerfectSeparation("ordinal fit diverging; data separated")
    cut, beta = _polr_theta_to_nat(theta, k1)
    assert (np.diff(cut) > 0).all(), "cutpoints must be strictly increasing"
    ll_final, _, info = _polr_terms(Xr, yk, K, cut, beta, level)
    cov = _inverse_information(info)

    # re-expand beta over the original column set (zeros for dropped columns)
    full_beta = np.zeros(X.shape[1])
    full_beta[keep] = beta
    packed = np.concatenate([cut, full_beta])
    full_cov = np.zeros((packed.size, packed.size))
    live = np.concatenate([np.ones(k1, bool), keep])
    full_cov[np.ix_(live, live)] = cov
    return GlmFit(packed, full_cov, converged, ll_final, n_cutpoints=k1)


def polr_category_probs(fit_or_params, X: np.ndarray, k1: int) -> np.ndarray:
    """Category probabilities from packed (cutpoints, beta) parameters."""
    params = fit_or_params.beta_hat if isinstance(fit_or_params, GlmFit) else fit_or_params
    cut, beta = params[:k1], params[k1:]
    eta = np.asarray(X, dtype=float) @ beta
    cdf = expit(cut[None, :] - eta[:, None])
    cdf = np.concatenate([np.zeros((len(eta), 1)), cdf, np.ones((len(eta), 1))], axis=1)
    probs = np.diff(cdf, axis=1)
    return np.maximum(probs, 0.0)
