"""Seeded random streams and the distribution samplers the imputers need.

One user seed fans out into independent streams (one per imputation
chain) through a counter-based generator, so runs reproduce bit-exactly
regardless of how chains are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyInterval,
    InvalidDof,
    NotPositiveDefinite,
    RankDeficient,
    SingularObservedBlock,
)


class RngStream:
    """A deterministic stream identified by (seed, stream path).

    Identical identifiers yield identical draw sequences; distinct
    stream ids are statistically independent. ``substream`` extends the
    path for nested parallel work (chain 0, chain 1, ...).
    """

    def __init__(self, seed: int, stream_id: int | tuple[int, ...] = 0):
        path = (stream_id,) if isinstance(stream_id, int) else tuple(stream_id)
        self.seed = int(seed)
        self.stream_id = path
        self.gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=self.seed, spawn_key=path))
        )

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id + (index,))

    # thin pass-throughs so call sites read naturally
    def normal(self, *a, **k):
        return self.gen.normal(*a, **k)

    def uniform(self, *a, **k):
        return self.gen.uniform(*a, **k)

    def random(self, *a, **k):
        return self.gen.random(*a, **k)

    def integers(self, *a, **k):
        return self.gen.integers(*a, **k)

    def chisquare(self, *a, **k):
        return self.gen.chisquare(*a, **k)

    def choice(self, *a, **k):
        return self.gen.choice(*a, **k)


def chol(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of one matrix or of each in a stack."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        p = cov.shape[-1]
        raise NotPositiveDefinite(
            f"{p}x{p} covariance is not positive definite"
        ) from None


def chol_inverse(L: np.ndarray) -> np.ndarray:
    """inv(L) for a lower Cholesky factor L of an SPD matrix a = L L':
    inv(a) is inv(L)' inv(L) and log det a is -2 sum log diag(inv(L))."""
    return np.linalg.inv(L)


def gram_chol(X: np.ndarray, label: str = "design matrix") -> np.ndarray:
    """Lower Cholesky factor of X'X, or ``RankDeficient`` naming ``label``
    when a column of X is a linear combination of the others: a pivot
    whose square is within 1e-10 of its column's sum of squares (1 - R^2
    on the earlier columns) counts as zero."""
    xtx = X.T @ X
    try:
        L = np.linalg.cholesky(xtx)
    except np.linalg.LinAlgError:
        L = None
    if L is None or (np.diag(L) ** 2 <= 1e-10 * np.diag(xtx)).any():
        raise RankDeficient(
            f"{label} is rank deficient: "
            "some column is a linear combination of the others"
        )
    return L


def expit(x):
    """Logistic function 1 / (1 + exp(-x)), through tanh so that no
    argument overflows."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def group_sums(codes: np.ndarray, W: np.ndarray, size: int) -> np.ndarray:
    """Column sums of the rows of W per code in range(size), added in row
    order (one bincount per column, so the same bits as accumulating row
    by row)."""
    return np.array([np.bincount(codes, weights=col, minlength=size) for col in W.T]).T


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of one matrix or of each in a stack."""
    return (a + np.swapaxes(a, -1, -2)) / 2.0


@dataclass(frozen=True)
class MvnParams:
    """Mean vector and SPD covariance of a multivariate normal."""

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("cov must be p x p matching mean")
        if np.abs(cov - cov.T).max(initial=0.0) > 1e-10:
            raise ValueError("covariance is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", sym(cov))
        object.__setattr__(self, "chol", chol(self.cov))

    @property
    def dim(self) -> int:
        return self.mean.size


def mvn_draw(rng: RngStream, params: MvnParams, size: int | None = None) -> np.ndarray:
    """Draw mean + L z with L the lower Cholesky factor of cov."""
    if size is None:
        z = rng.normal(size=params.dim)
        return params.mean + params.chol @ z
    z = rng.normal(size=(size, params.dim))
    return params.mean + z @ params.chol.T


def conditional_mvn(
    params: MvnParams, observed_idx, observed_vals
) -> MvnParams:
    """Conditional law of the unobserved coordinates given the observed.

    Returns N(mu_m + S_mo S_oo^-1 (x_o - mu_o), S_mm - S_mo S_oo^-1 S_om)
    over the complement of ``observed_idx``.
    """
    obs = np.asarray(observed_idx, dtype=int)
    vals = np.asarray(observed_vals, dtype=float)
    p = params.dim
    if obs.size == 0 or obs.size >= p:
        raise ValueError("observed_idx must be a proper nonempty subset")
    mis = np.setdiff1d(np.arange(p), obs)
    s_oo = params.cov[np.ix_(obs, obs)]
    s_mo = params.cov[np.ix_(mis, obs)]
    s_mm = params.cov[np.ix_(mis, mis)]
    try:
        gain = np.linalg.solve(s_oo, s_mo.T).T
    except np.linalg.LinAlgError:
        raise SingularObservedBlock("observed block of covariance is singular") from None
    mean = params.mean[mis] + gain @ (vals - params.mean[obs])
    cov = s_mm - gain @ s_mo.T
    return MvnParams(mean, sym(cov))


def _bartlett(rng: RngStream, dof: np.ndarray, n: int, p: int) -> np.ndarray:
    """Lower-triangular T per draw with T T' ~ Wishart(dof, I_p)."""
    if dof.size == 1:
        dof = dof.item()  # a scalar takes chisquare's faster path, same draws
    if np.any(np.less_equal(dof, p - 1)):
        raise InvalidDof(f"dof must exceed p - 1 = {p - 1}")
    T = np.zeros((n, p, p))
    for i in range(p):
        T[:, i, i] = np.sqrt(rng.chisquare(dof - i, size=n))
        if i:
            T[:, i, :i] = rng.normal(size=(n, i))
    return T


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with L X = B for a (n, p, p) stack of lower-triangular L and a
    right-hand side B broadcast to it, by forward substitution
    vectorised over the stack."""
    X = np.array(np.broadcast_to(B, L.shape[:-1] + B.shape[-1:]), dtype=float)
    for i in range(L.shape[-1]):
        X[:, i] -= np.einsum("nj,njk->nk", L[:, i, :i], X[:, :i])
        X[:, i] /= L[:, i, i, None]
    return X


def precision_draw(rng: RngStream, lam: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One draw from N(inv(lam) b, inv(lam)), for one matrix or for each
    entry of a stack.

    With lam = L L', inv(L L') (b + L z) is the mean inv(lam) b plus the
    noise inv(L') z, so one Cholesky factor serves both. For one matrix
    that is inv(L)'(inv(L) b + z), through one triangular inverse.
    """
    L = chol(lam)
    z = rng.normal(size=b.shape)
    if L.ndim == 2:
        Ki = chol_inverse(L)
        return Ki.T @ (Ki @ b + z)
    # forward then back substitution, vectorised over the stack: for the
    # small blocks here this beats a batched LU solve several times over
    x = b + np.einsum("gij,gj->gi", L, z)
    for i in range(x.shape[1]):
        x[:, i] -= np.einsum("nj,nj->n", L[:, i, :i], x[:, :i])
        x[:, i] /= L[:, i, i]
    for i in reversed(range(x.shape[1])):
        x[:, i] -= np.einsum("nj,nj->n", L[:, i + 1:, i], x[:, i + 1:])
        x[:, i] /= L[:, i, i]
    return x


def inv_wishart_draw(
    rng: RngStream, scale: np.ndarray, dof, size: int | None = None
) -> np.ndarray:
    """Inverse-Wishart draw(s), the covariance of ``wishart_precision_draw``;
    E[draw] = scale / (dof - p - 1).

    ``scale`` is one p x p matrix, or a (G, p, p) stack with ``dof`` a
    scalar or one value per entry; a stack gives one draw per entry.
    ``size`` asks for that many draws from a single p x p scale.
    """
    scale = np.asarray(scale, dtype=float)
    stacked = scale.ndim == 3
    scale = scale if stacked else np.atleast_2d(scale)[None]
    if not stacked and size is not None:
        scale = np.broadcast_to(scale, (size,) + scale.shape[1:])
    cov = wishart_precision_draw(rng, scale, dof)[1]
    return cov if stacked or size is not None else cov[0]


def wishart_precision_draw(
    rng: RngStream, scale: np.ndarray, dof
) -> tuple[np.ndarray, np.ndarray]:
    """One inverse-Wishart draw per entry of a (G, p, p) scale stack, as
    (precision, covariance).

    The covariance is inverse-Wishart, E = scale / (dof - p - 1), and
    the precision is its inverse, a Wishart(dof, inv(scale)) draw, E =
    dof inv(scale).
    With scale = C C', the factor inv(C)' of inv(scale) times a Bartlett
    factor T gives the precision A A' for A = inv(C)' T, and the
    covariance is K' K for K = inv(A) = inv(T) C': only triangular
    systems are solved, by forward substitution.
    """
    scale = np.asarray(scale, dtype=float)
    n, p = scale.shape[0], scale.shape[-1]
    T = _bartlett(rng, np.asarray(dof, dtype=float), n, p)
    C = chol(sym(scale))
    A = np.swapaxes(_solve_lower(C, np.eye(p)), -1, -2) @ T
    K = _solve_lower(T, np.swapaxes(C, -1, -2))
    return sym(A @ np.swapaxes(A, -1, -2)), sym(np.swapaxes(K, -1, -2) @ K)


def trunc_normal_draw(
    rng: RngStream,
    mean: float,
    sd: float,
    lower: float = -np.inf,
    upper: float = np.inf,
    size: int | None = None,
) -> float | np.ndarray:
    """Normal(mean, sd) restricted to the open interval (lower, upper)."""
    n = 1 if size is None else size
    out = trunc_normal_array(rng, np.full(n, mean), sd, lower, upper)
    return float(out[0]) if size is None else out


def trunc_normal_array(
    rng: RngStream, mean: np.ndarray, sd: float, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Vectorized truncated normal with per-element means and bounds."""
    if not sd > 0:
        raise ValueError("sd must be positive")
    mean = np.asarray(mean, dtype=float)
    a = (np.asarray(lower, dtype=float) - mean) / sd
    b = (np.asarray(upper, dtype=float) - mean) / sd
    if not (a < b).all():
        raise EmptyInterval("some truncation interval has no interior")
    a, b = np.broadcast_arrays(a, b)
    return mean + sd * _trunc_std(rng, a.ravel(), b.ravel()).reshape(a.shape)


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _trunc_std(rng: RngStream, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Standard-normal draws on (a, b) by accept-reject with the proposals
    of Robert, "Simulation of truncated normal variables", Statistics and
    Computing 5(2), 1995. An interval left of zero is mirrored, so hi > 0,
    and each element keeps the proposal with the highest acceptance rate
    on its (lo, hi), over Phi(hi) - Phi(lo):
    - the normal, kept in (lo, hi): 1, or 2 folded to |z| when lo >= 0;
    - the uniform on (lo, hi), kept with probability exp((m^2 - z^2) / 2)
      for m = max(lo, 0): sqrt(2 pi) exp(m^2 / 2) / (hi - lo);
    - for lo >= 0, lo plus an exponential of rate lam = (lo + sqrt(lo^2 +
      4)) / 2, kept below hi with probability exp(-(z - lam)^2 / 2):
      sqrt(2 pi) lam exp(lam lo - lam^2 / 2).
    So a long tail beyond lo = 0.257 draws exponentials and an interval
    across 0 narrower than sqrt(2 pi) uniforms. The elements are grouped
    by proposal once; each round then passes once over those pending.
    """
    flip = b <= 0.0
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    fold = lo >= 0.0
    m = np.maximum(lo, 0.0)
    lam = 0.5 * (m + np.sqrt(m * m + 4.0))
    r_norm = math.log(2.0) * fold  # log acceptance rates, as above
    r_unif = _LOG_SQRT_2PI + 0.5 * m * m - np.log(hi - lo)
    r_exp = np.where(fold, _LOG_SQRT_2PI + np.log(lam) + lam * (m - 0.5 * lam), -np.inf)
    unif = r_unif > np.maximum(r_norm, r_exp)
    # each element's proposal: 0 normal, 1 folded normal, 2 uniform, 3
    # exponential; pending elements by proposal, n0 <= n1 <= n2 the ends
    kind = np.where(unif, 2, fold + 2 * (r_exp > r_norm)).astype(np.int8)
    todo = np.argsort(kind, kind="stable")
    n0, n1, n2 = np.cumsum(np.bincount(kind, minlength=4))[:3]
    # the proposal z = base + scale * v is kept when l < z < h and, past
    # the normals, U <= exp(c0 + z (c1 - z / 2))
    P = np.zeros((6, todo.size))
    base, scale, c0, c1, l, h = P
    l[:], h[:], scale[:n1], base[n1:] = lo[todo], hi[todo], 1.0, lo[todo[n1:]]
    u, lam = todo[n1:n2], lam[todo[n2:]]
    scale[n1:n2], c0[n1:n2] = hi[u] - lo[u], 0.5 * m[u] ** 2
    scale[n2:], c0[n2:], c1[n2:] = 1.0 / lam, -0.5 * lam * lam, lam
    out = np.empty(a.shape)
    while todo.size:
        v = np.concatenate([rng.normal(size=n1), rng.random(n2 - n1),
                            rng.gen.standard_exponential(todo.size - n2)])
        np.abs(v[n0:n1], out=v[n0:n1])
        base, scale, c0, c1, l, h = P
        z = base + scale * v
        out[todo] = z  # a rejected draw is overwritten in a later round
        keep = (z <= l) | (z >= h)
        t = z[n1:]
        keep[n1:] |= rng.random(t.size) > np.exp(c0[n1:] + t * (c1[n1:] - 0.5 * t))
        n0, n1, n2 = (np.count_nonzero(keep[:n]) for n in (n0, n1, n2))
        todo, P = todo[keep], P[:, keep]
    return np.where(flip, -out, out)
