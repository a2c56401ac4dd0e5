"""Joint-model imputation: one multivariate-normal Gibbs sampler.

The incomplete row-level variables form one MVN response block given
complete fixed-effect covariates, cluster random effects and an
optional block of incomplete cluster-constant variables whose residuals
are drawn jointly with the random effects. The single-level model is
the case with no random effects: all rows in one cluster, q = 0 random
coefficients and no cluster-level block, so the sweep skips the
random-effect steps (after jomo; Quartagno, Grund & Carpenter, R
Journal 11(2), 2019).

Residual covariances come in groups: a common covariance is the
one-group case, and a cluster-specific one gives every cluster its own
group. The sampler carries precisions: each inverse-Wishart draw of
Omega (per group) or Psi returns the precision with the covariance, and
every conditional is written in the precision, so no sweep inverts a
covariance. The random effects, B under several groups, the missing
cells and the translation-interweave shift of the random effects' means
are each one ``rng.precision_draw``. Per-cluster and per-group sums of
row products are batched matrix products over rows laid out by label
once (``_Blocks``), and the fixed-effect precision sum_g Q_g (x)
X_g'X_g is one GEMM. With one group it is Q (x) X'X, whose factor
chol(Q) (x) chol(X'X) gives the draw of B in closed form.

Missing cells are drawn by one kernel that takes the stack of group
precisions and a plan of the incomplete rows, built once per sampler,
whatever their missingness patterns.

Discrete variables ride along as thresholded latent normals: a K-level
variable contributes K-1 latent columns; a cell's level is the index
of the largest positive latent, or the last level when none is
positive. Latents of observed cells are refreshed by a random-walk
Metropolis step confined to the cell's level region, over a plan of
each variable's observed rows, also built once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadConfig,
    DegenerateSeries,
    TooFewClusters,
    UnknownLevel,
    UnknownParam,
)
from .rng import (
    RngStream,
    chol,
    chol_inverse,
    gram_chol,
    precision_draw,
    sym,
    wishart_precision_draw,
)
from .stack import ImputedStack
from .table import Dataset

_MH_STEP = 1.0


# ---------------------------------------------------------------------------
# latent encoding
# ---------------------------------------------------------------------------


def decode_latent(latents: np.ndarray) -> np.ndarray:
    """Level codes from latent columns: argmax if positive, else the
    reference (last) level."""
    latents = np.atleast_2d(latents)
    top = np.argmax(latents, axis=1)
    top_val = latents[np.arange(len(latents)), top]
    return np.where(top_val > 0.0, top, latents.shape[1]).astype(float)


def encode_latent(
    rng: RngStream, codes: np.ndarray, n_levels: int
) -> np.ndarray:
    """Latent columns consistent with observed level codes.

    Missing cells (NaN codes) start at zero; the samplers overwrite
    them on the first sweep. Decoding an encoded observed cell returns
    the original level.
    """
    codes = np.asarray(codes, dtype=float)
    n, k = len(codes), n_levels - 1
    z = np.zeros((n, k))
    obs = ~np.isnan(codes)
    if (codes[obs] < 0).any() or (codes[obs] > n_levels - 1).any():
        raise UnknownLevel("level code outside 0..K-1")
    draw = np.abs(rng.normal(size=(n, k))) + 0.01
    z[obs] = -draw[obs]
    lead = obs & (codes <= k - 1)
    rows = np.where(lead)[0]
    z[rows, codes[lead].astype(int)] = draw[rows, codes[lead].astype(int)]
    return z


def _in_region(z: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Rowwise check that latents lie in the observed level's region."""
    k = z.shape[1]
    ref = codes >= k
    top = np.argmax(z, axis=1)
    top_val = z[np.arange(len(z)), top]
    ok_lead = (top == codes.astype(int) % k) & (top_val > 0.0)
    ok_ref = top_val <= 0.0
    return np.where(ref, ok_ref, ok_lead)


# ---------------------------------------------------------------------------
# response layout
# ---------------------------------------------------------------------------


@dataclass
class _VarSlot:
    name: str
    kind: str
    n_levels: int
    cols: slice  # latent/continuous columns in the response matrix
    missing: np.ndarray  # per-row missing flags for the variable


class _Layout:
    """Maps dataset variables onto response-matrix columns."""

    def __init__(self, d: Dataset, names: list[str], rows: np.ndarray | None = None):
        rows = np.arange(d.n_rows) if rows is None else rows
        self.slots: list[_VarSlot] = []
        self.col_names: list[str] = []
        start = 0
        for nm in names:
            sp = d.spec(nm)
            width = (sp.n_levels - 1) if sp.levels is not None else 1
            self.slots.append(
                _VarSlot(
                    nm,
                    sp.kind,
                    sp.n_levels,
                    slice(start, start + width),
                    d.column_mask(nm)[rows].copy(),
                )
            )
            if sp.levels is None:
                self.col_names.append(nm)
            else:
                self.col_names.extend(f"{nm}#{j + 1}" for j in range(width))
            start += width
        self.width = start
        self.rows = rows

    def build_matrix(self, rng: RngStream, d: Dataset) -> np.ndarray:
        """Initial response matrix: observed values, mean-filled missing
        continuous cells, region-consistent latents."""
        Y = np.zeros((len(self.rows), self.width))
        for s in self.slots:
            x = d.column(s.name)[self.rows]
            if s.n_levels == 0:
                col = x.copy()
                obs_mean = np.nanmean(col) if (~s.missing).any() else 0.0
                sd = np.nanstd(col) if (~s.missing).any() else 1.0
                fill = obs_mean + 0.1 * max(sd, 1e-6) * rng.normal(
                    size=int(s.missing.sum())
                )
                col[s.missing] = fill
                Y[:, s.cols] = col[:, None]
            else:
                Y[:, s.cols] = encode_latent(rng, x, s.n_levels)
        return Y

    def unknown_mask(self) -> np.ndarray:
        """Cells redrawn from row conditionals: missing continuous cells
        and latent cells of missing discrete cells."""
        unknown = np.zeros((len(self.rows), self.width), dtype=bool)
        for s in self.slots:
            unknown[:, s.cols] = s.missing[:, None]
        return unknown

    def snapshot_into(self, values: np.ndarray, mask: np.ndarray, Y: np.ndarray,
                      d: Dataset, col_of: dict[str, int]):
        """Write imputed cells back into a values matrix (original rows)."""
        for s in self.slots:
            j = col_of[s.name]
            rows = self.rows[s.missing]
            if s.n_levels == 0:
                values[rows, j] = Y[s.missing, s.cols][:, 0]
            else:
                values[rows, j] = decode_latent(Y[s.missing, s.cols])
            mask[rows, j] = False


# ---------------------------------------------------------------------------
# chain trace
# ---------------------------------------------------------------------------


class ChainTrace:
    """Per-sweep record of every imputation-model parameter."""

    def __init__(self, names: list[str]):
        self.names = list(names)
        self._rows: list[np.ndarray] = []

    def record(self, row: np.ndarray):
        self._rows.append(np.asarray(row, dtype=float))

    @property
    def n_iter(self) -> int:
        return len(self._rows)

    def sweeps(self) -> list[np.ndarray]:
        """Each sweep's row of parameter values, in the order recorded."""
        return list(self._rows)

    def matrix(self) -> np.ndarray:
        return np.vstack(self._rows) if self._rows else np.empty((0, len(self.names)))

    def series(self, param: str) -> np.ndarray:
        try:
            j = self.names.index(param)
        except ValueError:
            raise UnknownParam(f"parameter {param!r} was not recorded") from None
        return self.matrix()[:, j]


def autocorrs(series: np.ndarray, lags) -> list[float]:
    """Sample autocorrelations in [-1, 1] at each of ``lags``; the series
    is centred and its sum of squares formed once for all of them."""
    x = np.asarray(series, dtype=float)
    if any(lag <= 0 or lag >= len(x) for lag in lags):
        raise ValueError("lag must be in 1..len(series)-1")
    x = x - x.mean()
    denom = float(x @ x)
    if denom <= 0.0:
        raise DegenerateSeries("constant series has undefined autocorrelation")
    return [float((x[:-lag] @ x[lag:]) / denom) for lag in lags]


def autocorr(series: np.ndarray, lag: int) -> float:
    """Lag-k sample autocorrelation in [-1, 1]."""
    return autocorrs(series, [lag])[0]


# ---------------------------------------------------------------------------
# shared sampler pieces
# ---------------------------------------------------------------------------


def _matrix_normal_draw(b_hat, sqrt_row, E, col_factor):
    """Draw from MN(b_hat, sqrt_row sqrt_row', col_factor col_factor')
    given standard normals E of b_hat's shape."""
    return b_hat + sqrt_row @ E @ col_factor.T


def _kron_sum(A, B):
    """sum_g kron(A[g], B[g]) over stacks (G, r, r) and (G, f, f), as one
    (r*r, G) x (G, f*f) GEMM and a transpose to (r*f, r*f)."""
    G, r, f = A.shape[0], A.shape[-1], B.shape[-1]
    out = A.reshape(G, r * r).T @ B.reshape(G, f * f)
    return out.reshape(r, r, f, f).transpose(0, 2, 1, 3).reshape(r * f, r * f)


class _Blocks:
    """Rows laid out by label, for per-label sums as batched products.

    ``index[g]`` lists the rows labelled g in order, padded to the
    largest label's count with ``n``; gathering through it from the rows
    plus one appended zero row gives a (labels, width, ...) block whose
    padding adds nothing to a sum.
    """

    def __init__(self, labels: np.ndarray, n_labels: int):
        n = len(labels)
        order = np.argsort(labels, kind="stable")
        counts = np.bincount(labels, minlength=n_labels)
        pos = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
        self.index = np.full((n_labels, counts.max(initial=1)), n)
        self.index[labels[order], pos] = order

    def gather(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([x, np.zeros((1,) + x.shape[1:])])[self.index]

    @staticmethod
    def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-label a'b, (labels, a cols, b cols), from gathered blocks."""
        return np.swapaxes(a, 1, 2) @ b


@dataclass(frozen=True)
class _DrawPlan:
    """What the missing-cell draw needs that no sweep changes."""

    rows: np.ndarray  # rows with an unknown cell
    unknown: np.ndarray  # their unknown cells
    both: np.ndarray  # (rows, r, r): both coordinates unknown
    eye_known: np.ndarray  # (rows, r, r): identity on the known coordinates
    group: np.ndarray  # their covariance groups

    @classmethod
    def build(cls, unknown: np.ndarray, group: np.ndarray) -> "_DrawPlan":
        rows = np.flatnonzero(unknown.any(axis=1))
        unk = unknown[rows]
        r = unk.shape[1]
        eye_known = np.zeros((rows.size, r, r))
        eye_known[:, np.arange(r), np.arange(r)] = ~unk
        return cls(rows, unk, unk[:, :, None] & unk[:, None, :], eye_known,
                   group[rows])


def _draw_missing(rng, Y, mu, Q, plan: _DrawPlan):
    """Redraw the unknown cells of each planned row from its conditional.

    Row i follows N(mu_i, inv(Q[group[i]])). Given its known cells the
    unknown block has precision Q_MM and mean
    mu_M - inv(Q_MM) Q_MO (y_O - mu_O). Each row's Q_MM is padded with the
    identity on the known coordinates, so one ``precision_draw`` over the
    stack, with b = -Q_MO (y_O - mu_O), covers every pattern. Entries on
    known coordinates are discarded.
    """
    y, m = Y[plan.rows], mu[plan.rows]
    Qg = Q[plan.group]
    dev = np.where(plan.unknown, 0.0, y - m)
    shift = precision_draw(rng, np.where(plan.both, Qg, plan.eye_known),
                           -np.einsum("nij,nj->ni", Qg, dev))
    Y[plan.rows] = np.where(plan.unknown, m + shift, y)


@dataclass(frozen=True)
class _SlotPlan:
    """One discrete variable's observed cells, for the Metropolis refresh."""

    cols: slice  # its latent columns
    rows: np.ndarray  # rows where it is observed
    codes: np.ndarray  # their level codes
    group: np.ndarray  # their covariance groups


def _mh_plan(layout: _Layout, d: Dataset, group: np.ndarray) -> list[_SlotPlan]:
    plan = []
    for s in layout.slots:
        if s.n_levels and not s.missing.all():
            rows = np.flatnonzero(~s.missing)
            codes = d.column(s.name)[layout.rows[rows]]
            plan.append(_SlotPlan(s.cols, rows, codes, group[rows]))
    return plan


def _mh_refresh(rng, Y, mu, Q, plan: list[_SlotPlan]):
    """Metropolis refresh of latent cells for observed discrete values.

    A block's conditional precision is Q_bb, so a move by delta changes
    the log density by -delta' (Q (y - mu))_b - delta' Q_bb delta / 2.
    """
    for p in plan:
        Qb = Q[:, p.cols][p.group]
        grad = np.einsum("nij,nj->ni", Qb, Y[p.rows] - mu[p.rows])
        step = _MH_STEP * rng.normal(size=(p.rows.size, Qb.shape[1]))
        zp = Y[p.rows, p.cols] + step
        ok = _in_region(zp, p.codes)
        log_alpha = -np.einsum("ni,ni->n", step, grad) - 0.5 * np.einsum(
            "ni,nij,nj->n", step, Qb[:, :, p.cols], step
        )
        accept = ok & (np.log(rng.random(p.rows.size)) < log_alpha)
        Y[p.rows[accept], p.cols] = zp[accept]


# ---------------------------------------------------------------------------
# model spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JmSpec:
    """What to impute and how to condition.

    ``y_cols`` are the incomplete row-level variables; ``x_cols`` the
    complete fixed-effect predictors (an intercept is prepended
    automatically); ``z_cols`` complete random-effect covariates beyond
    the automatic random intercept. ``y2_cols``/``x2_cols`` describe
    incomplete and complete cluster-constant variables. ``cov_mode``
    chooses one residual covariance for all clusters or one per
    cluster. Without ``clus`` the model is single-level.
    """

    y_cols: tuple[str, ...]
    x_cols: tuple[str, ...] = ()
    z_cols: tuple[str, ...] = ()
    y2_cols: tuple[str, ...] = ()
    x2_cols: tuple[str, ...] = ()
    clus: str | None = None
    cov_mode: str = "common"
    nburn: int = 100
    nbetween: int = 100
    nimp: int = 5

    def __post_init__(self):
        for name in ("y_cols", "x_cols", "z_cols", "y2_cols", "x2_cols"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.nimp < 1 or self.nburn < 1 or self.nbetween < 1:
            raise BadConfig("nimp, nburn and nbetween must be >= 1")
        if self.cov_mode not in ("common", "cluster-specific"):
            raise BadConfig("cov_mode must be 'common' or 'cluster-specific'")
        if self.clus is None and (self.y2_cols or self.z_cols):
            raise BadConfig("cluster-level blocks require a clus column")
        if self.clus is None and self.cov_mode == "cluster-specific":
            raise BadConfig("cluster-specific covariances require a clus column")


def _upper_pairs(prefix: str, names: list[str]) -> list[str]:
    """Trace names of a symmetric matrix's upper triangle, row by row."""
    return [f"{prefix}.{a}.{b}" for i, a in enumerate(names) for b in names[i:]]


def _design_block(d: Dataset, cols, rows=None) -> tuple[np.ndarray, list[str]]:
    """Intercept plus the named complete columns as a matrix."""
    rows = np.arange(d.n_rows) if rows is None else rows
    mats = [np.ones(len(rows))]
    names = ["_intercept"]
    for nm in cols:
        hole = d.column_mask(nm)
        if hole.any():
            raise BadConfig(
                f"predictor column {nm!r} has a missing cell "
                f"(row {np.argmax(hole) + 1})"
            )
        mats.append(d.column(nm)[rows])
        names.append(nm)
    return np.column_stack(mats), names


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


class _MlmmSampler:
    def __init__(self, rng: RngStream, spec: JmSpec, d: Dataset):
        self.d = d
        if spec.clus is None:
            # single level: every row in one cluster, no random effects
            uniq, first_row, clus = np.zeros(1), np.zeros(1, int), np.zeros(d.n_rows)
            self.Z, self.z_names = np.zeros((d.n_rows, 0)), []
        else:
            uniq, first_row, clus = np.unique(
                d.column(spec.clus), return_index=True, return_inverse=True
            )
            self.Z, self.z_names = _design_block(d, spec.z_cols)
        self.clus = clus.astype(int)
        self.C = len(uniq)
        if spec.cov_mode == "cluster-specific" and self.C < 3:
            raise TooFewClusters(
                "cluster-specific residual covariances need >= 3 clusters"
            )
        # residual-covariance group of each cluster: one group holds every
        # cluster under a common covariance, else each cluster is its own
        self.G = self.C if spec.cov_mode == "cluster-specific" else 1
        self.clus_group = np.arange(self.C) if self.G > 1 else np.zeros(self.C, int)
        self.group = self.clus_group[self.clus]
        self.layout = _Layout(d, list(spec.y_cols))
        self.X, self.x_names = _design_block(d, spec.x_cols)
        self.Y = self.layout.build_matrix(rng, d)
        self.n, self.r = self.Y.shape
        self.f = self.X.shape[1]
        self.q = self.Z.shape[1]

        # cluster-constant block
        if spec.y2_cols:
            ref = first_row[self.clus]
            for nm in spec.y2_cols:
                vals, msk = d.column(nm), d.column_mask(nm)
                varies = (msk != msk[ref]) | (~msk & (vals != vals[ref]))
                if varies.any():
                    c = self.clus[np.argmax(varies)]
                    raise BadConfig(
                        f"{nm!r} is not constant within cluster {uniq[c]:.15g} of "
                        f"{spec.clus!r}: a cluster-level variable must be "
                        "observed, with one value, in all or none of its rows"
                    )
            self.layout2 = _Layout(d, list(spec.y2_cols), rows=first_row)
            self.X2, self.x2_names = _design_block(d, spec.x2_cols, first_row)
            self.Y2 = self.layout2.build_matrix(rng, d)
            self.r2 = self.Y2.shape[1]
            self.f2 = self.X2.shape[1]
            self.B2 = np.zeros((self.f2, self.r2))
            self._x2_chol_inv = chol_inverse(gram_chol(
                self.X2, f"level-2 design ({', '.join(self.x2_names)})"
            ))
            one = np.zeros(self.C, dtype=int)
            self.plan2 = _DrawPlan.build(self.layout2.unknown_mask(), one)
            self.mh_plan2 = _mh_plan(self.layout2, d, one)
        else:
            self.layout2 = None
            self.Y2 = np.zeros((self.C, 0))
            self.r2 = 0
            self.B2 = np.zeros((0, 0))

        self.qr = self.q * self.r
        self.dim_psi = self.qr + self.r2
        self.U = np.zeros((self.C, self.q, self.r))
        # covariances and the precisions drawn with them: Psi_prec is
        # inv(Psi), Q[g] is inv(Omega[g])
        self.Psi = np.eye(self.dim_psi)
        self.Psi_prec = np.eye(self.dim_psi)
        self.B = np.zeros((self.f, self.r))
        self.Omega = np.tile(np.eye(self.r), (self.G, 1, 1))
        self.Q = self.Omega.copy()
        # every G factors X'X, so a collinear design fails here by name;
        # the one-group draw of B reuses the factor
        Lx = gram_chol(self.X, f"fixed-effect design ({', '.join(self.x_names)})")
        self._sqrt_xtx_inv = chol_inverse(Lx).T
        self._xtx_inv = self._sqrt_xtx_inv @ self._sqrt_xtx_inv.T

        self.plan = _DrawPlan.build(self.layout.unknown_mask(), self.group)
        self.mh_plan = _mh_plan(self.layout, d, self.group)
        self._by_clus = _Blocks(self.clus, self.C)
        self._by_group = _Blocks(self.group, self.G)
        self._Z_clus = self._by_clus.gather(self.Z)
        self._X_group = self._by_group.gather(self.X)
        self.ZtZ = _Blocks.cross(self._Z_clus, self._Z_clus)
        self.XtX_g = _Blocks.cross(self._X_group, self._X_group)
        self.n_g = np.bincount(self.group, minlength=self.G).astype(float)
        self._prior_dof = self.r + 1
        self._prior_scale = np.eye(self.r)
        self._iu_r, self._iu_p = np.triu_indices(self.r), np.triu_indices(self.dim_psi)

        # translation-interweaving bookkeeping: the mean of each random
        # effect trades off against a fixed effect of the same covariate,
        # and cluster-level residual means against the level-2 intercept;
        # shifting that split every sweep keeps the chain mixing when
        # clusters are information-rich
        self._shiftable = np.zeros(self.dim_psi, dtype=bool)
        self._shift_b_row = np.full(self.q, -1, dtype=int)
        for j, nm in enumerate(self.z_names):
            if nm in self.x_names:
                self._shift_b_row[j] = self.x_names.index(nm)
                self._shiftable[j:self.qr:self.q] = True
        self._shiftable[self.qr:] = True

        ys = self.layout.col_names
        psi_names = [f"u.{z}.{y}" for y in ys for z in self.z_names]
        beta2 = []
        if self.layout2:
            psi_names += [f"v.{y}" for y in self.layout2.col_names]
            beta2 = [f"beta2.{y}.{x}" for x in self.x2_names
                     for y in self.layout2.col_names]
        self.trace_names = ([f"beta.{y}.{x}" for x in self.x_names for y in ys]
                            + _upper_pairs("omega", ys) + _upper_pairs("psi", psi_names)
                            + beta2)

    def _trace_row(self):
        parts = [self.B.ravel(), self.Omega.mean(axis=0)[self._iu_r],
                 self.Psi[self._iu_p]]
        if self.layout2:
            parts.append(self.B2.ravel())
        return np.concatenate(parts)

    # -- conditional pieces -------------------------------------------------

    def _v_resid(self):
        return self.Y2 - self.X2 @ self.B2 if self.r2 else np.zeros((self.C, 0))

    def _recenter(self, rng: RngStream):
        """Draw the location split between fixed and random effects.

        The shift has a flat likelihood direction whenever a random
        covariate also appears among the fixed effects, so its
        conditional is N(mean w of the effects, Psi / C); moving the drawn
        shift into B (and B2 for the level-2 block) is an exact Gibbs
        step on an otherwise nearly frozen direction. Coefficients
        without a matching fixed effect stay at zero: with lam = C
        inv(Psi), the rest S have precision lam_SS and b = (lam w)_S.
        """
        C, q, r, qr = self.C, self.q, self.r, self.qr
        w = self.U.transpose(0, 2, 1).reshape(C, qr)
        if self.r2:
            w = np.concatenate([w, self._v_resid()], axis=1)
        lam, s = C * self.Psi_prec, self._shiftable
        shift = np.zeros(self.dim_psi)
        shift[s] = precision_draw(rng, lam[np.ix_(s, s)], (lam @ w.mean(axis=0))[s])
        u_shift = shift[:qr].reshape(r, q).T  # (q, r)
        self.U = self.U - u_shift[None, :, :]
        moved = self._shift_b_row >= 0
        self.B[self._shift_b_row[moved]] += u_shift[moved]
        if self.r2:
            self.B2[0] += shift[qr:]

    def _draw_u(self, rng: RngStream):
        """Random effects U | rest, one draw per cluster. Given the
        level-2 residuals V, the prior precision of U is the uu block of
        inv(Psi) and its mean term is minus the uv block times V."""
        qr, r, q, C = self.qr, self.r, self.q, self.C
        R = self._by_clus.gather(self.Y - self.X @ self.B)
        ZtR = _Blocks.cross(self._Z_clus, R)
        Qc = self.Q[self.clus_group]
        K = np.einsum("gcd,gab->gcadb", Qc, self.ZtZ).reshape(C, qr, qr)
        lin = (ZtR @ Qc).transpose(0, 2, 1).reshape(C, qr)
        P = self.Psi_prec
        if self.r2:
            lin = lin - self._v_resid() @ P[qr:, :qr]
        u_flat = precision_draw(rng, sym(P[:qr, :qr][None] + K), lin)
        # response-major flat vector -> (q, r) coefficient matrix
        self.U = u_flat.reshape(C, r, q).transpose(0, 2, 1)

    def _draw_b(self, rng: RngStream, T: np.ndarray):
        """B | rest given T, the responses less the random-effect offsets:
        normal with precision sum_g Q_g (x) X_g'X_g over response-major
        vec(B), drawn by ``precision_draw`` from one Cholesky factor L of
        it as inv(L')(inv(L) lin + z).

        With one group the precision is Q (x) X'X and L = Lq (x) Lx, so
        the draw is the OLS mean plus inv(Lx)' E inv(Lq), E the same z
        laid out as an (f, r) matrix."""
        f, r, G, Q = self.f, self.r, self.G, self.Q
        if G == 1:
            z = rng.normal(size=f * r)
            col_factor = chol_inverse(chol(Q[0])).T
            self.B = _matrix_normal_draw(self._xtx_inv @ (self.X.T @ T),
                                         self._sqrt_xtx_inv, z.reshape(r, f).T,
                                         col_factor)
            return
        XtT = _Blocks.cross(self._X_group, self._by_group.gather(T))  # (G, f, r)
        lin = XtT.transpose(1, 0, 2).reshape(f, G * r) @ Q.reshape(G * r, r)
        draw = precision_draw(rng, _kron_sum(Q, self.XtX_g), lin.T.ravel())
        self.B = draw.reshape(r, f).T

    def _draw_level2(self, rng: RngStream):
        """B2 and the missing Y2 cells given U. Given U, V has precision
        the vv block of inv(Psi) and mean -inv(P_vv) P_vu u."""
        qr, C, P = self.qr, self.C, self.Psi_prec
        Ki = chol_inverse(chol(P[qr:, qr:]))
        u_flat = self.U.transpose(0, 2, 1).reshape(C, qr)
        m_v = -(Ki.T @ (Ki @ (P[qr:, :qr] @ u_flat.T))).T
        T2 = self.Y2 - m_v
        Ci = self._x2_chol_inv
        b2_hat = Ci.T @ (Ci @ (self.X2.T @ T2))
        # Ki' is a factor of the covariance inv(P_vv)
        self.B2 = _matrix_normal_draw(b2_hat, Ci.T,
                                      rng.normal(size=b2_hat.shape), Ki.T)
        mu2 = self.X2 @ self.B2 + m_v
        Q2 = P[qr:, qr:][None]
        _draw_missing(rng, self.Y2, mu2, Q2, self.plan2)
        _mh_refresh(rng, self.Y2, mu2, Q2, self.mh_plan2)

    def _draw_psi(self, rng: RngStream):
        """Psi | U, V: one inverse-Wishart draw over the clusters."""
        W = self.U.transpose(0, 2, 1).reshape(self.C, self.qr)
        if self.r2:
            W = np.concatenate([W, self._v_resid()], axis=1)
        P, Psi = wishart_precision_draw(
            rng, (np.eye(self.dim_psi) + W.T @ W)[None], self.dim_psi + 1 + self.C
        )
        self.Psi_prec, self.Psi = P[0], Psi[0]

    def _offset(self):
        """Each row's random-effect term z_i' U_c (none without random
        effects, where the einsum over q = 0 would cost as much)."""
        return np.einsum("nq,nqr->nr", self.Z, self.U[self.clus]) if self.q else 0.0

    def sweep(self, rng: RngStream):
        # the single-level model has no random effects to draw
        if self.dim_psi:
            self._draw_u(rng)
            # translation interweave: move the random-effect means into
            # the matching fixed effects (likelihood-invariant split)
            if self._shiftable.any():
                self._recenter(rng)
            self._draw_psi(rng)

        # --- Omega | residuals, one inverse-Wishart per group ---
        T = self.Y - self._offset()
        E = self._by_group.gather(T - self.X @ self.B)
        EtE = _Blocks.cross(E, E)
        self.Q, self.Omega = wishart_precision_draw(
            rng, self._prior_scale[None] + EtE, self._prior_dof + self.n_g
        )

        self._draw_b(rng, T)

        if self.r2:
            self._draw_level2(rng)

        # --- missing level-1 cells and latent refresh ---
        mu = self.X @ self.B + self._offset()
        _draw_missing(rng, self.Y, mu, self.Q, self.plan)
        _mh_refresh(rng, self.Y, mu, self.Q, self.mh_plan)

    def snapshot(self) -> Dataset:
        values = self.d.values.copy()
        mask = self.d.mask.copy()
        col_of = {c.name: j for j, c in enumerate(self.d.columns)}
        self.layout.snapshot_into(values, mask, self.Y, self.d, col_of)
        if self.layout2:
            # broadcast cluster-level imputations to every member row
            for s in self.layout2.slots:
                j = col_of[s.name]
                z = self.Y2[:, s.cols]
                vals_c = decode_latent(z) if s.n_levels else z[:, 0]
                rows_missing = np.where(self.d.mask[:, j])[0]
                values[rows_missing, j] = vals_c[self.clus[rows_missing]]
                mask[rows_missing, j] = False
        if mask.any():
            raise RuntimeError("snapshot left masked cells")
        return self.d.completed(values)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_jm(
    rng: RngStream, spec: JmSpec, data: Dataset
) -> tuple[ImputedStack, ChainTrace]:
    """Burn in, then emit one completed dataset every ``nbetween`` sweeps.

    Total sweeps = nburn + (nimp - 1) * nbetween; the trace covers all
    of them.
    """
    covered = set(spec.y_cols) | set(spec.y2_cols)
    uncovered = [c.name for c in data.columns
                 if data.column_mask(c.name).any() and c.name not in covered]
    if uncovered:
        raise BadConfig(
            f"incomplete columns {uncovered} are not listed in y_cols/y2_cols"
        )
    sampler = _MlmmSampler(rng, spec, data)
    trace = ChainTrace(sampler.trace_names)
    imputations = []
    total = spec.nburn + (spec.nimp - 1) * spec.nbetween
    snap_at = {spec.nburn + i * spec.nbetween for i in range(spec.nimp)}
    for it in range(1, total + 1):
        sampler.sweep(rng)
        trace.record(sampler._trace_row())
        if it in snap_at:
            imputations.append(sampler.snapshot())
    return ImputedStack(data, imputations), trace
