import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import norm

from longmi.errors import (
    BadConfig,
    DegenerateSeries,
    RankDeficient,
    TooFewClusters,
    UnknownParam,
)
from longmi.jm import (
    ChainTrace,
    JmSpec,
    _Blocks,
    _draw_missing,
    _DrawPlan,
    _in_region,
    _kron_sum,
    _mh_refresh,
    _MlmmSampler,
    _SlotPlan,
    autocorr,
    decode_latent,
    encode_latent,
    run_jm,
)
from longmi.rng import (
    MvnParams,
    RngStream,
    chol,
    conditional_mvn,
    precision_draw,
)
from longmi.table import ColumnSpec, Dataset


def wide_dataset(cols, data):
    specs = [ColumnSpec("id", "continuous", "unit-id")]
    arrays = {"id": np.arange(len(next(iter(data.values()))))}
    for name, kind, levels in cols:
        specs.append(ColumnSpec(name, kind, "analysis", levels))
        arrays[name] = data[name]
    return Dataset.build(specs, arrays, shape_kind="wide")


class TestLatentRules:
    def test_binary_negative_latent_is_second_level(self):
        assert decode_latent(np.array([[-0.5]]))[0] == 1.0

    def test_three_level_max_positive(self):
        assert decode_latent(np.array([[0.2, 1.4]]))[0] == 1.0  # second level

    def test_all_negative_reference(self):
        assert decode_latent(np.array([[-1.0, -2.0]]))[0] == 2.0

    def test_encode_decode_roundtrip(self):
        rng = RngStream(0)
        codes = np.array([0.0, 1, 2, 3, 1, 0, np.nan, 2])
        z = encode_latent(rng, codes, 4)
        got = decode_latent(z)
        obs = ~np.isnan(codes)
        np.testing.assert_array_equal(got[obs], codes[obs])

    def test_region_membership(self):
        z = np.array([[1.0, -1.0], [-1.0, 2.0], [-0.5, -0.5], [2.0, 3.0]])
        codes = np.array([0.0, 1.0, 2.0, 1.0])
        assert _in_region(z, codes).all()
        bad = np.array([1.0, 0.0, 0.0, 0.0])
        assert not _in_region(z, bad).any()


class TestRunArithmetic:
    def test_sweep_counts_and_snapshots(self):
        rng = RngStream(1)
        y = rng.normal(size=30)
        y[:5] = np.nan
        d = wide_dataset([("y", "continuous", None)], {"y": y})
        spec = JmSpec(y_cols=("y",), nburn=3, nbetween=2, nimp=2)
        stack, trace = run_jm(RngStream(2), spec, d)
        assert trace.n_iter == 5  # 3 burn-in + 2 between
        assert stack.m == 2

    def test_no_missing_identity(self):
        rng = RngStream(3)
        d = wide_dataset(
            [("a", "continuous", None), ("b", "continuous", None)],
            {"a": rng.normal(size=20), "b": rng.normal(size=20)},
        )
        spec = JmSpec(y_cols=("a", "b"), nburn=4, nbetween=2, nimp=3)
        stack, _ = run_jm(RngStream(4), spec, d)
        for imp in stack.imputations:
            assert imp.equals(d.completed(d.values))

    def test_predictor_with_missing_cell_rejected(self):
        x = np.array([0.5, 1.0, np.nan, 2.0])
        d = wide_dataset(
            [("y", "continuous", None), ("x", "continuous", None)],
            {"y": np.array([1.0, np.nan, 2.0, 3.0]), "x": x},
        )
        spec = JmSpec(y_cols=("y",), x_cols=("x",), nburn=1, nbetween=1, nimp=1)
        with pytest.raises(BadConfig, match=r"'x' has a missing cell \(row 3\)"):
            _MlmmSampler(RngStream(0), spec, d)

    def test_uncovered_incomplete_column_rejected(self):
        y = np.array([1.0, np.nan, 2.0])
        d = wide_dataset(
            [("y", "continuous", None), ("z", "continuous", None)],
            {"y": y, "z": y[::-1]},
        )
        with pytest.raises(BadConfig, match="not listed"):
            run_jm(RngStream(0), JmSpec(y_cols=("y",), nburn=1, nbetween=1, nimp=1), d)

    @pytest.mark.parametrize("kwargs, match", [
        ({"nimp": 0}, "must be >= 1"),
        ({"cov_mode": "per-row"}, "cov_mode must be"),
        ({"z_cols": ("x",)}, "cluster-level blocks require"),
        ({"cov_mode": "cluster-specific"}, "cluster-specific covariances require"),
    ])
    def test_spec_errors_are_bad_config(self, kwargs, match):
        with pytest.raises(BadConfig, match=match):
            JmSpec(y_cols=("y",), **kwargs)

    @pytest.mark.parametrize("level2", [False, True])
    def test_collinear_design_rank_deficient(self, level2):
        # x2 = 2 x: the fixed-effect (or level-2) design is singular, which
        # is reported by name rather than as a covariance failure
        C, per = 8, 3
        clus = np.repeat(np.arange(C), per)
        gen = np.random.default_rng(35)
        x = gen.normal(size=C)[clus] if level2 else gen.normal(size=C * per)
        y = gen.normal(size=C * per)
        y[::4] = np.nan
        w = gen.normal(size=C)[clus]
        w[clus == 2] = np.nan
        d = Dataset.build(
            [ColumnSpec("id", "continuous", "unit-id"),
             ColumnSpec("g", "continuous", "cluster-id"),
             *[ColumnSpec(nm, "continuous", "analysis") for nm in ("x", "x2", "y", "w")]],
            {"id": np.arange(C * per), "g": clus, "x": x, "x2": 2 * x, "y": y, "w": w},
            shape_kind="wide",
        )
        if level2:
            spec = JmSpec(y_cols=("y",), y2_cols=("w",), x2_cols=("x", "x2"), clus="g",
                          nburn=1, nbetween=1, nimp=1)
            match = r"level-2 design \(_intercept, x, x2\) is rank deficient"
        else:
            spec = JmSpec(y_cols=("y", "w"), x_cols=("x", "x2"), nburn=1, nbetween=1, nimp=1)
            match = r"fixed-effect design \(_intercept, x, x2\) is rank deficient"
        with pytest.raises(RankDeficient, match=match):
            run_jm(RngStream(36), spec, d)


class TestMvnSampler:
    def test_single_missing_cell_posterior_mean(self):
        rho = 0.8
        rng = RngStream(5)
        n = 400
        x = rng.normal(size=n)
        y = rho * x + np.sqrt(1 - rho**2) * rng.normal(size=n)
        yv = y.copy()
        yv[0] = np.nan
        d = wide_dataset(
            [("a", "continuous", None), ("b", "continuous", None)],
            {"a": x, "b": yv},
        )
        spec = JmSpec(y_cols=("a", "b"), nburn=200, nbetween=1, nimp=2000)
        stack, _ = run_jm(RngStream(6), spec, d)
        draws = np.array([imp.column("b")[0] for imp in stack.imputations])
        mc_se = draws.std() / np.sqrt(len(draws))
        # fitted conditional mean is close to the generating one at n=400
        assert abs(draws.mean() - rho * x[0]) < 3 * mc_se + 0.05

    def test_binary_marginal_preserved(self):
        rng = RngStream(7)
        n = 1000
        b = (rng.random(n) < 0.7).astype(float)
        bv = b.copy()
        miss = rng.random(n) < 0.3
        bv[miss] = np.nan
        d = wide_dataset([("y", "binary", None)], {"y": bv})
        spec = JmSpec(y_cols=("y",), nburn=300, nbetween=25, nimp=40)
        stack, _ = run_jm(RngStream(8), spec, d)
        frac = np.mean([imp.column("y")[miss].mean() for imp in stack.imputations])
        assert frac == pytest.approx(0.70, abs=0.03)

    def test_observed_cells_bit_exact(self):
        rng = RngStream(9)
        n = 200
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        c = rng.integers(0, 3, n).astype(float)
        for arr, p in ((a, 0.2), (b, 0.3), (c, 0.25)):
            arr[rng.random(n) < p] = np.nan
        d = wide_dataset(
            [
                ("a", "continuous", None),
                ("b", "continuous", None),
                ("c", "categorical", ("x", "y", "z")),
            ],
            {"a": a, "b": b, "c": c},
        )
        spec = JmSpec(y_cols=("a", "b", "c"), nburn=30, nbetween=5, nimp=4)
        stack, _ = run_jm(RngStream(10), spec, d)
        for imp in stack.imputations:
            assert not imp.mask.any()
            for col in ("a", "b", "c"):
                obs = ~d.column_mask(col)
                np.testing.assert_array_equal(
                    imp.column(col)[obs], d.column(col)[obs]
                )

    @pytest.mark.parametrize("sampler", ["mvn", "cluster-specific"])
    def test_latent_regions_hold_and_omega_spd(self, sampler):
        rng = RngStream(11)
        n = 300
        c = rng.integers(0, 4, n).astype(float)
        c[rng.random(n) < 0.3] = np.nan
        a = rng.normal(size=n)
        d = wide_dataset(
            [("a", "continuous", None), ("c", "categorical", ("1", "2", "3", "4"))],
            {"a": a, "c": c},
        )
        if sampler == "mvn":
            spec = JmSpec(y_cols=("a", "c"), nburn=10, nbetween=1, nimp=1)
        else:
            d = Dataset.build(
                [*d.columns, ColumnSpec("g", "continuous", "cluster-id")],
                {**{col.name: d.column(col.name) for col in d.columns},
                 "g": np.repeat(np.arange(10), n // 10)},
                shape_kind="wide",
            )
            spec = JmSpec(y_cols=("a", "c"), clus="g", cov_mode="cluster-specific",
                          nburn=10, nbetween=1, nimp=1)
        sampler = _MlmmSampler(RngStream(12), spec, d)
        obs = ~np.isnan(c)
        for _ in range(25):
            sampler.sweep(RngStream(13).substream(_))
            np.linalg.cholesky(sampler.Omega)
            slot = sampler.layout.slots[1]
            z = sampler.Y[obs, slot.cols]
            assert _in_region(z, c[obs]).all()


class TestDrawKernel:
    def test_matches_conditional_mvn(self):
        # one row per case, each replicated: all cells unknown, one
        # unknown, two unknown around a known one, none unknown
        gen = np.random.default_rng(3)
        r, G, reps = 3, 3, 20_000
        covs = []
        for _ in range(G):
            a = gen.normal(size=(r, r))
            covs.append(a @ a.T + r * np.eye(r))
        Q = np.linalg.inv(np.array(covs))
        base_unknown = np.array(
            [[True, True, True], [False, True, False],
             [True, False, True], [False, False, False]]
        )
        base_group = np.array([0, 1, 2, 0])
        base_y = gen.normal(size=(4, r))
        base_mu = gen.normal(size=(4, r))
        unknown = np.tile(base_unknown, (reps, 1))
        group = np.tile(base_group, reps)
        Y = np.tile(base_y, (reps, 1))
        Y[unknown] = 0.0
        mu = np.tile(base_mu, (reps, 1))
        before = Y.copy()
        _draw_missing(RngStream(4), Y, mu, Q, _DrawPlan.build(unknown, group))
        np.testing.assert_array_equal(Y[~unknown], before[~unknown])
        for k in range(3):
            mis = np.flatnonzero(base_unknown[k])
            obs = np.flatnonzero(~base_unknown[k])
            full = MvnParams(base_mu[k], covs[base_group[k]])
            law = full if obs.size == 0 else conditional_mvn(full, obs, base_y[k, obs])
            draws = Y[k::4][:, mis]
            se = np.sqrt(np.diag(law.cov) / reps)
            assert (np.abs(draws.mean(axis=0) - law.mean) < 5 * se).all()
            sd = np.sqrt(np.diag(law.cov))
            got = np.atleast_2d(np.cov(draws, rowvar=False))
            assert (np.abs(got - law.cov) <= 0.05 * np.outer(sd, sd)).all()


    def test_metropolis_keeps_truncated_conditional(self):
        # one binary variable beside a continuous one, two covariance
        # groups: observed at level 0 its latent stays positive, and after
        # many refreshes its law is the conditional normal cut at zero
        Q = np.array([[[2.0, 0.8], [0.8, 1.0]], [[1.0, -0.3], [-0.3, 0.5]]])
        reps = 20_000
        group = np.tile([0, 1], reps)
        mu = np.tile([[0.3, -0.2], [-0.5, 0.4]], (reps, 1))
        Y = mu.copy()
        Y[:, 0] = 1.0  # continuous cell, held fixed
        Y[:, 1] = 0.5  # latent of level 0
        plan = [_SlotPlan(slice(1, 2), np.arange(2 * reps), np.zeros(2 * reps),
                          group)]
        rng = RngStream(5)
        for _ in range(150):
            _mh_refresh(rng, Y, mu, Q, plan)
        assert (Y[:, 0] == 1.0).all() and (Y[:, 1] > 0).all()
        for g in range(2):
            # z | y0 ~ N(m, s^2) with s^2 = 1/Q_11, m = mu_1 - Q_10 (y0 - mu_0) / Q_11
            s = 1.0 / np.sqrt(Q[g, 1, 1])
            m = mu[g, 1] - Q[g, 1, 0] * (1.0 - mu[g, 0]) / Q[g, 1, 1]
            a = -m / s
            lam = norm.pdf(a) / norm.sf(a)
            mean, var = m + s * lam, s**2 * (1 + a * lam - lam**2)
            z = Y[g::2, 1]
            assert abs(z.mean() - mean) < 5 * np.sqrt(var / reps)
            assert z.var() == pytest.approx(var, rel=0.05)


class TestGroupSums:
    @pytest.mark.parametrize("labels", [
        np.array([2, 0, 1, 2, 2, 0, 3, 1, 2]),  # unsorted, label 3 a singleton
        np.array([1, 0, 2]),  # singletons only
        np.zeros(7, dtype=int),  # one group
    ])
    def test_cross_matches_add_at(self, labels):
        gen = np.random.default_rng(4)
        n, G = len(labels), labels.max() + 1
        a, b = gen.normal(size=(n, 3)), gen.normal(size=(n, 2))
        want = np.zeros((G, 3, 2))
        np.add.at(want, labels, a[:, :, None] * b[:, None, :])
        blocks = _Blocks(labels, G)
        got = blocks.cross(blocks.gather(a), blocks.gather(b))
        np.testing.assert_allclose(got, want,
                                   rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("G, r, f", [(1, 3, 4), (5, 2, 6), (40, 4, 3)])
    def test_kron_sum_matches_einsum(self, G, r, f):
        gen = np.random.default_rng(G)
        A, B = gen.normal(size=(G, r, r)), gen.normal(size=(G, f, f))
        want = np.einsum("gcd,gab->cadb", A, B).reshape(f * r, f * r)
        np.testing.assert_allclose(_kron_sum(A, B), want, rtol=1e-12, atol=1e-12)


class TestPrecisionDraw:
    def test_matches_normal_with_inverse_precision(self):
        # the U step's law: N(inv(lam) b, inv(lam)) per cluster
        gen = np.random.default_rng(8)
        qr, G, reps = 4, 3, 20_000
        lams = []
        for _ in range(G):
            a = gen.normal(size=(qr, qr))
            lams.append(a @ a.T + qr * np.eye(qr))
        lam, b = np.array(lams), gen.normal(size=(G, qr))
        draws = precision_draw(
            RngStream(9), np.tile(lam, (reps, 1, 1)), np.tile(b, (reps, 1))
        )
        for g in range(G):
            cov = np.linalg.inv(lam[g])
            sd = np.sqrt(np.diag(cov))
            x = draws[g::G]
            assert (np.abs(x.mean(axis=0) - cov @ b[g]) < 5 * sd / np.sqrt(reps)).all()
            got = np.cov(x, rowvar=False)
            assert (np.abs(got - cov) <= 0.05 * np.outer(sd, sd)).all()

    def test_one_matrix_matches_normal_with_inverse_precision(self):
        # one p x p precision takes two triangular solves, not the stack loop
        gen = np.random.default_rng(10)
        p, reps = 5, 10_000
        a = gen.normal(size=(p, p))
        lam, b = a @ a.T + p * np.eye(p), gen.normal(size=p)
        rng = RngStream(11)
        draws = np.array([precision_draw(rng, lam, b) for _ in range(reps)])
        cov = np.linalg.inv(lam)
        sd = np.sqrt(np.diag(cov))
        assert (np.abs(draws.mean(axis=0) - cov @ b) < 5 * sd / np.sqrt(reps)).all()
        got = np.cov(draws, rowvar=False)
        assert (np.abs(got - cov) <= 0.05 * np.outer(sd, sd)).all()


class TestMlmmSampler:
    def make_two_level(self, seed=14, C=100, per=10, icc=0.3, miss=0.25):
        rng = RngStream(seed)
        clus = np.repeat(np.arange(C), per)
        u = rng.normal(0, np.sqrt(icc), C)[clus]
        y1 = u + rng.normal(0, np.sqrt(1 - icc), C * per)
        y2 = 0.5 * u + rng.normal(0, 1, C * per)
        y1v = y1.copy()
        y1v[rng.random(C * per) < miss] = np.nan
        specs = [
            ColumnSpec("id", "continuous", "unit-id"),
            ColumnSpec("g", "continuous", "cluster-id"),
            ColumnSpec("a", "continuous", "analysis"),
            ColumnSpec("b", "continuous", "analysis"),
        ]
        d = Dataset.build(
            specs,
            {"id": np.arange(C * per), "g": clus, "a": y1v, "b": y2},
            shape_kind="wide",
        )
        return d, clus

    def test_icc_recovery(self):
        d, _ = self.make_two_level()
        spec = JmSpec(y_cols=("a", "b"), clus="g", nburn=500, nbetween=1, nimp=1200)
        _, trace = run_jm(RngStream(15), spec, d)
        psi = trace.series("psi.u._intercept.a.u._intercept.a")[500:]
        omega = trace.series("omega.a.a")[500:]
        icc_est = float((psi / (psi + omega)).mean())
        assert icc_est == pytest.approx(0.3, abs=0.05)

    def test_cluster_constant_block(self):
        rng = RngStream(20)
        C, per = 60, 5
        clus = np.repeat(np.arange(C), per)
        u = rng.normal(0, 1.0, C)
        w = u + rng.normal(0, 0.2, C)
        y = u[clus] + rng.normal(0, 0.5, C * per)
        wv = w.copy()
        miss_c = rng.random(C) < 0.4
        wv[miss_c] = np.nan
        d = Dataset.build(
            [
                ColumnSpec("id", "continuous", "unit-id"),
                ColumnSpec("g", "continuous", "cluster-id"),
                ColumnSpec("y", "continuous", "analysis"),
                ColumnSpec("w2", "continuous", "analysis"),
            ],
            {"id": np.arange(C * per), "g": clus, "y": y, "w2": wv[clus]},
            shape_kind="wide",
        )
        spec = JmSpec(
            y_cols=("y",), y2_cols=("w2",), clus="g", nburn=300, nbetween=20, nimp=20
        )
        stack, _ = run_jm(RngStream(21), spec, d)
        for imp in stack.imputations:
            vals = imp.column("w2")
            for c in range(C):
                assert len(np.unique(vals[clus == c])) == 1
        imp_means = np.mean(
            [[imp.column("w2")[clus == c][0] for c in np.where(miss_c)[0]]
             for imp in stack.imputations],
            axis=0,
        )
        assert np.corrcoef(imp_means, w[miss_c])[0, 1] > 0.9

    @pytest.mark.parametrize("second", [np.nan, 2.0])
    def test_cluster_constant_block_must_be_constant(self, second):
        # a cluster-level column observed in one row of a cluster and
        # missing (or different) in another is a configuration error
        C, per = 6, 4
        clus = np.repeat(np.arange(C), per)
        w = np.repeat(np.arange(C, dtype=float), per)
        w[clus == 0] = np.nan
        w[per + 1] = second
        d = Dataset.build(
            [
                ColumnSpec("id", "continuous", "unit-id"),
                ColumnSpec("g", "continuous", "cluster-id"),
                ColumnSpec("y", "continuous", "analysis"),
                ColumnSpec("w2", "continuous", "analysis"),
            ],
            {"id": np.arange(C * per), "g": clus,
             "y": RngStream(29).normal(size=C * per), "w2": w},
            shape_kind="wide",
        )
        spec = JmSpec(y_cols=("y",), y2_cols=("w2",), clus="g",
                      nburn=1, nbetween=1, nimp=1)
        with pytest.raises(BadConfig, match="'w2' is not constant within cluster 1"):
            run_jm(RngStream(30), spec, d)

    def level2_state(self, seed=31, C=6, per=4, cov_mode="common", z_cols=("t",)):
        # two responses with a random intercept and slope, one
        # cluster-level response and covariate, and a fixed random state
        gen = np.random.default_rng(seed)
        clus = np.repeat(np.arange(C), per)
        t = np.tile(np.linspace(-1, 1, per), C)
        cols = {"id": np.arange(C * per), "g": clus, "t": t,
                "a": gen.normal(size=C * per), "b": gen.normal(size=C * per),
                "w2": gen.normal(size=C)[clus], "h": gen.normal(size=C)[clus],
                "s": np.cos(np.arange(C * per))}
        d = Dataset.build(
            [ColumnSpec("id", "continuous", "unit-id"),
             ColumnSpec("g", "continuous", "cluster-id"),
             *[ColumnSpec(nm, "continuous", "analysis")
               for nm in ("t", "a", "b", "w2", "h", "s")]],
            cols, shape_kind="wide",
        )
        spec = JmSpec(y_cols=("a", "b"), x_cols=("t",), z_cols=z_cols,
                      y2_cols=("w2",), x2_cols=("h",), clus="g",
                      cov_mode=cov_mode, nburn=1, nbetween=1, nimp=1)
        s = _MlmmSampler(RngStream(seed), spec, d)
        s.B = gen.normal(size=s.B.shape)
        s.B2 = gen.normal(size=s.B2.shape)
        s.U = gen.normal(size=s.U.shape)
        a = gen.normal(size=(s.dim_psi, s.dim_psi))
        s.Psi = a @ a.T + np.eye(s.dim_psi)
        s.Psi_prec = np.linalg.inv(s.Psi)
        a = gen.normal(size=(s.G, s.r, s.r))
        s.Omega = a @ a.transpose(0, 2, 1) + np.eye(s.r)
        s.Q = np.linalg.inv(s.Omega)
        return s

    @staticmethod
    def assert_normal(draws, mean, cov, reps):
        sd = np.sqrt(np.diag(cov))
        assert (np.abs(draws.mean(axis=0) - mean) < 5 * sd / np.sqrt(reps)).all()
        got = np.cov(draws, rowvar=False)
        assert (np.abs(got - cov) <= 0.1 * np.outer(sd, sd)).all()

    def test_u_step_matches_covariance_form(self):
        # U_c | rest from the covariances: prior N(Psi_uv inv(Psi_vv) v_c,
        # Psi_uu - Psi_uv inv(Psi_vv) Psi_vu), rows y_i = kron(I, z_i') u
        s = self.level2_state()
        qr, r, reps = s.qr, s.r, 4000
        Psi, om_inv = s.Psi, np.linalg.inv(s.Omega[0])
        uu, uv, vv = Psi[:qr, :qr], Psi[:qr, qr:], Psi[qr:, qr:]
        prior_prec = np.linalg.inv(uu - uv @ np.linalg.solve(vv, uv.T))
        V = s.Y2 - s.X2 @ s.B2
        R = s.Y - s.X @ s.B
        draws = np.empty((reps, s.C, qr))
        rng = RngStream(32)
        for k in range(reps):
            s._draw_u(rng)
            draws[k] = s.U.transpose(0, 2, 1).reshape(s.C, qr)
        for c in range(s.C):
            prec = prior_prec.copy()
            lin = prior_prec @ uv @ np.linalg.solve(vv, V[c])
            for i in np.flatnonzero(s.clus == c):
                D = np.kron(np.eye(r), s.Z[i][None, :])
                prec += D.T @ om_inv @ D
                lin += D.T @ om_inv @ R[i]
            cov = np.linalg.inv(prec)
            self.assert_normal(draws[:, c], cov @ lin, cov, reps)

    def test_b_step_matches_covariance_form(self):
        # vec(B) | T from the covariances, one residual covariance per
        # cluster: rows t_i = kron(I, x_i') b + e_i, e_i ~ N(0, Omega_g)
        s = self.level2_state(cov_mode="cluster-specific")
        f, r, reps = s.f, s.r, 4000
        T = s.Y - 0.3
        prec, lin = np.zeros((f * r, f * r)), np.zeros(f * r)
        for i in range(s.n):
            D = np.kron(np.eye(r), s.X[i][None, :])
            om_inv = np.linalg.inv(s.Omega[s.group[i]])
            prec += D.T @ om_inv @ D
            lin += D.T @ om_inv @ T[i]
        cov = np.linalg.inv(prec)
        rng = RngStream(34)
        draws = np.empty((reps, f * r))
        for k in range(reps):
            s._draw_b(rng, T)
            draws[k] = s.B.T.ravel()
        self.assert_normal(draws, cov @ lin, cov, reps)

    def test_one_group_b_step_is_the_kronecker_draw(self):
        # with one covariance group the closed-form draw of B is the
        # Cholesky draw over sum_g Q_g (x) X_g'X_g, from the same normals
        s = self.level2_state()
        f, r = s.f, s.r
        T = s.Y - 0.3
        s._draw_b(RngStream(37), T)
        XtT = s.X.T @ T
        L = chol(_kron_sum(s.Q, (s.X.T @ s.X)[None]))
        want = solve_triangular(L, (XtT @ s.Q[0]).T.ravel(), lower=True)
        z = RngStream(37).normal(size=f * r)
        want = solve_triangular(L, want + z, lower=True, trans="T")
        np.testing.assert_allclose(s.B, want.reshape(r, f).T, rtol=0, atol=1e-10)

    def test_level2_coefficients_match_covariance_form(self):
        # B2 | U ~ MN(inv(X2'X2) X2'(Y2 - E[V | U]), inv(X2'X2), S_v|u)
        # with E[V | U] = u inv(Psi_uu) Psi_uv, from the covariances
        s = self.level2_state()
        qr, reps = s.qr, 4000
        Psi = s.Psi
        uu, uv, vv = Psi[:qr, :qr], Psi[:qr, qr:], Psi[qr:, qr:]
        u_flat = s.U.transpose(0, 2, 1).reshape(s.C, qr)
        m_v = u_flat @ np.linalg.solve(uu, uv)
        xtx_inv = np.linalg.inv(s.X2.T @ s.X2)
        mean = xtx_inv @ s.X2.T @ (s.Y2 - m_v)
        cov = np.kron(xtx_inv, vv - uv.T @ np.linalg.solve(uu, uv))
        rng = RngStream(33)
        draws = np.empty((reps, mean.size))
        for k in range(reps):
            s._draw_level2(rng)
            draws[k] = s.B2.ravel()
        self.assert_normal(draws, mean.ravel(), cov, reps)

    def test_recenter_matches_conditional_mvn(self):
        # a random slope on s, which is not a fixed effect, stays put: the
        # shift of the effects' means is N(wbar, Psi / C) given its
        # s coordinates at zero, moved out of U into B and B2
        s = self.level2_state(z_cols=("t", "s"))
        C, q, r, qr, reps = s.C, s.q, s.r, s.qr, 4000
        fixed = np.flatnonzero(~s._shiftable)
        assert s.z_names == ["_intercept", "t", "s"] and fixed.tolist() == [2, 5]
        w = np.concatenate([s.U.transpose(0, 2, 1).reshape(C, qr), s._v_resid()], axis=1)
        law = conditional_mvn(MvnParams(w.mean(axis=0), s.Psi / C), fixed,
                              np.zeros(fixed.size))
        U, B, B2 = s.U.copy(), s.B.copy(), s.B2.copy()
        rng = RngStream(35)
        draws = np.empty((reps, s.dim_psi))
        for k in range(reps):
            s.U, s.B, s.B2 = U.copy(), B.copy(), B2.copy()
            s._recenter(rng)
            u_shift = U - s.U
            assert np.allclose(u_shift, u_shift[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(s.B[:2] - B[:2], u_shift[0, :2], atol=1e-12)
            draws[k] = np.append(u_shift[0].T.ravel(), s.B2[0] - B2[0])
        assert (draws[:, fixed] == 0.0).all()
        keep = np.setdiff1d(np.arange(s.dim_psi), fixed)
        self.assert_normal(draws[:, keep], law.mean, law.cov, reps)

    def test_cluster_specific_covariance_runs(self):
        d, _ = self.make_two_level(seed=22, C=40, per=8)
        spec = JmSpec(
            y_cols=("a", "b"),
            clus="g",
            cov_mode="cluster-specific",
            nburn=50,
            nbetween=5,
            nimp=3,
        )
        stack, _ = run_jm(RngStream(23), spec, d)
        assert stack.m == 3
        for imp in stack.imputations:
            assert not imp.mask.any()

    def test_too_few_clusters(self):
        d, clus = self.make_two_level(seed=24, C=2, per=10)
        spec = JmSpec(
            y_cols=("a", "b"), clus="g", cov_mode="cluster-specific",
            nburn=2, nbetween=1, nimp=1,
        )
        with pytest.raises(TooFewClusters):
            run_jm(RngStream(25), spec, d)


class TestTraceDiagnostics:
    def test_series_and_unknown_param(self):
        t = ChainTrace(["p", "q"])
        t.record([1.0, 2.0])
        t.record([3.0, 4.0])
        np.testing.assert_array_equal(t.series("q"), [2.0, 4.0])
        with pytest.raises(UnknownParam):
            t.series("nope")

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeries):
            autocorr(np.ones(100), 1)

    def test_white_noise(self):
        x = RngStream(26).normal(size=10_000)
        assert abs(autocorr(x, 1)) < 0.05

    def test_ar1(self):
        rng = RngStream(27)
        phi = 0.9
        n = 20_000
        x = np.empty(n)
        x[0] = rng.normal()
        eps = rng.normal(size=n)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + eps[i]
        assert autocorr(x, 1) == pytest.approx(phi, abs=0.05)

    def test_autocorr_bounds(self):
        x = RngStream(28).normal(size=500)
        for lag in (1, 5, 20):
            assert -1.0 <= autocorr(x, lag) <= 1.0


class TestRandomSlopeRecovery:
    def test_slope_covariance_tracks_realized_effects(self):
        # information-rich clusters: the posterior mean of the random
        # coefficient covariance must match the realized effects closely
        rng = np.random.default_rng(77)
        C, per = 300, 40
        clus = np.repeat(np.arange(C), per)
        t = np.tile(np.linspace(-2, 2, per), C)
        truth = np.array([[0.5, 0.15], [0.15, 0.1]])
        b = rng.multivariate_normal([0, 0], truth, size=C)
        y = 1.0 + b[clus, 0] + b[clus, 1] * t + rng.normal(0, 0.1, C * per)
        yv = y.copy()
        yv[rng.random(C * per) < 0.15] = np.nan
        d = Dataset.build(
            [
                ColumnSpec("id", "continuous", "unit-id"),
                ColumnSpec("g", "continuous", "cluster-id"),
                ColumnSpec("t", "continuous", "analysis"),
                ColumnSpec("y", "continuous", "analysis"),
            ],
            {"id": np.arange(C * per), "g": clus, "t": t, "y": yv},
            shape_kind="wide",
        )
        spec = JmSpec(
            y_cols=("y",), x_cols=("t",), z_cols=("t",), clus="g",
            nburn=1, nbetween=1, nimp=1,
        )
        s = _MlmmSampler(RngStream(78), spec, d)
        rs = RngStream(79)
        psi_acc = np.zeros((2, 2))
        n_acc = 0
        for it in range(700):
            s.sweep(rs)
            if it >= 200:
                psi_acc += s.Psi
                n_acc += 1
        got = psi_acc / n_acc
        realized = b.T @ b / C
        np.testing.assert_allclose(got, realized, rtol=0.12, atol=0.01)
