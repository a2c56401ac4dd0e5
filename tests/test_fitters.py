import itertools

import numpy as np
import pytest

from longmi.errors import (
    EmptyCategory,
    ParseError,
    PerfectSeparation,
    RankDeficient,
    UnsupportedNesting,
)
from longmi.fitters import (
    _inverse_information,
    _polr_terms,
    _polr_theta_terms,
    fit_linear_and_draw,
    fit_logistic,
    fit_polr,
    polr_category_probs,
)
from longmi.formula import parse_formula
from longmi.lmm import deviance, fit_lmm_arrays
from longmi.rng import RngStream


class TestFormula:
    def test_simple(self):
        f = parse_formula("y ~ x + (1|id)")
        assert f.response == "y"
        assert [str(t) for t in f.fixed] == ["x"]
        assert f.random == ("id",)

    def test_nested_with_factor(self):
        f = parse_formula("y ~ a + factor(s) + (1 | school/id)")
        assert [str(t) for t in f.fixed] == ["a", "factor(s)"]
        assert f.random == ("school", "id")

    def test_unclosed_random_part(self):
        with pytest.raises(ParseError) as err:
            parse_formula("y ~ (1|id")
        assert err.value.position == len("y ~ (1|id")

    def test_whitespace_insensitive(self):
        assert parse_formula("y~x+(1|g)") == parse_formula(" y ~ x + ( 1 | g ) ")

    def test_response_reuse_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("y ~ y + x")


class TestLinearDraw:
    def test_exact_fit_floors_sigma(self):
        x = np.arange(1.0, 11.0)
        X = np.column_stack([np.ones(10), x])
        with pytest.warns(UserWarning, match="flooring"):
            d = fit_linear_and_draw(RngStream(0), X, 2.0 * x)
        assert d.beta_hat[1] == pytest.approx(2.0, abs=1e-12)
        assert d.sigma2_draw <= 1e-8

    def test_reproducible_draws(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(50), rng.normal(size=50)])
        y = X @ [1.0, 2.0] + rng.normal(size=50)
        a = fit_linear_and_draw(RngStream(11, 2), X, y)
        b = fit_linear_and_draw(RngStream(11, 2), X, y)
        np.testing.assert_array_equal(a.beta_draw, b.beta_draw)
        assert a.sigma2_draw == b.sigma2_draw

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(4)
        n = 10_000
        x = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x])
        y = 1.0 + 3.0 * x + rng.normal(size=n)
        d = fit_linear_and_draw(RngStream(5), X, y)
        np.testing.assert_allclose(d.beta_hat, [1.0, 3.0], atol=0.05)

    def test_rank_deficient(self):
        X = np.column_stack([np.ones(20), np.ones(20)])
        with pytest.raises(RankDeficient):
            fit_linear_and_draw(RngStream(0), X, np.arange(20.0))

    def test_beta_hat_matches_lstsq_when_ill_conditioned(self):
        # singular values 1 .. 1e-4: X'X has condition number 1e8, so
        # the normal equations alone lose about 8 digits
        rng = np.random.default_rng(31)
        n, p = 200, 6
        U = np.linalg.qr(rng.normal(size=(n, p)))[0]
        V = np.linalg.qr(rng.normal(size=(p, p)))[0]
        X = U @ np.diag(np.logspace(0.0, -4.0, p)) @ V.T
        assert np.linalg.cond(X) == pytest.approx(1e4, rel=1e-6)
        y = X @ rng.normal(size=p) + 0.1 * rng.normal(size=n)
        ref = np.linalg.lstsq(X, y, rcond=None)[0]
        got = fit_linear_and_draw(RngStream(0), X, y).beta_hat
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_draw_covariance_is_sigma2_inverse_gram(self):
        # given sigma2_draw, beta_draw - beta_hat ~ N(0, sigma2_draw (X'X)^-1)
        rng = np.random.default_rng(32)
        n = 30
        x = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x, x + 0.5 * rng.normal(size=n)])
        y = X @ [1.0, 0.5, -0.5] + rng.normal(size=n)
        draws = 4000
        z = np.empty((draws, 3))
        for i in range(draws):
            d = fit_linear_and_draw(RngStream(33, i), X, y)
            z[i] = (d.beta_draw - d.beta_hat) / np.sqrt(d.sigma2_draw)
        want = np.linalg.solve(X.T @ X, np.eye(3))
        sd = np.sqrt(np.diag(want))
        corr_err = (np.cov(z.T) - want) / np.outer(sd, sd)
        assert np.abs(corr_err).max() < 0.08  # about 5 standard errors
        assert np.abs(z.mean(axis=0) / sd).max() < 0.08


class TestLogistic:
    def test_saturated_two_by_two(self):
        # x=0: 30 ones / 70 zeros; x=1: 60 ones / 40 zeros
        x = np.concatenate([np.zeros(100), np.ones(100)])
        y = np.concatenate([np.ones(30), np.zeros(70), np.ones(60), np.zeros(40)])
        X = np.column_stack([np.ones(200), x])
        fit = fit_logistic(X, y)
        b0 = np.log(30 / 70)
        b1 = np.log(60 / 40) - b0
        assert fit.converged
        np.testing.assert_allclose(fit.beta_hat, [b0, b1], atol=1e-6)

    def test_all_equal_response_degenerate(self):
        X = np.column_stack([np.ones(40), np.arange(40.0)])
        with pytest.raises(PerfectSeparation):
            fit_logistic(X, np.ones(40))

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(7)
        n = 100_000
        x = rng.normal(size=n)
        p = 1 / (1 + np.exp(0.5 - x))
        y = (rng.random(n) < p).astype(float)
        fit = fit_logistic(np.column_stack([np.ones(n), x]), y)
        np.testing.assert_allclose(fit.beta_hat, [-0.5, 1.0], atol=0.05)

    def test_cov_is_spd(self):
        rng = np.random.default_rng(8)
        X = np.column_stack([np.ones(500), rng.normal(size=(500, 2))])
        y = (rng.random(500) < 0.4).astype(float)
        fit = fit_logistic(X, y)
        np.linalg.cholesky(fit.cov_hat)


def polr_data(rng, n, K, const):
    """Codes from P(y <= k) = expit(cut_k - x beta), two slopes; a leading
    constant column (which fit_polr drops) if ``const``."""
    x = rng.normal(size=(n, 2))
    cuts = np.linspace(-1.0, 1.0, K - 1)
    y = ((x @ [0.8, -0.5] + rng.logistic(size=n))[:, None] > cuts).sum(axis=1)
    return (np.column_stack([np.ones(n), x]) if const else x), y


def fd_jacobian(grad, x, h=1e-6):
    """Symmetrised central differences of ``grad`` at ``x``."""
    H = np.empty((x.size, x.size))
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        H[:, j] = (grad(x + e) - grad(x - e)) / (2 * h)
    return (H + H.T) / 2.0


def fd_polr_information(X, yk, K, nat):
    """Central differences of the analytic score at (cut, beta) = nat."""
    k1 = K - 1
    return -fd_jacobian(lambda v: _polr_terms(X, yk, K, v[:k1], v[k1:])[1], nat)


class TestPolr:
    @pytest.mark.parametrize("const", [False, True])
    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_information_matches_score_differences(self, K, const):
        rng = np.random.default_rng(100 + K)
        X, y = polr_data(rng, 400, K, const)
        for _ in range(3):
            cut = np.sort(rng.normal(0.0, 1.5, K - 1))
            beta = rng.normal(size=X.shape[1])
            _, _, info = _polr_terms(X, y, K, cut, beta)
            fd = fd_polr_information(X, y, K, np.concatenate([cut, beta]))
            assert np.abs(info - fd).max() <= 1e-6 * np.abs(fd).max()
            # the Newton Hessian in (c1, log gaps, beta)
            theta = np.concatenate([cut[:1], np.log(np.diff(cut)), beta])
            _, _, H = _polr_theta_terms(X, y, K, theta)
            fd = fd_jacobian(lambda t: _polr_theta_terms(X, y, K, t)[1], theta)
            assert np.abs(H - fd).max() <= 1e-6 * np.abs(fd).max()

    @pytest.mark.parametrize("const", [False, True])
    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_cov_matches_finite_difference_reference(self, K, const):
        rng = np.random.default_rng(200 + K)
        X, y = polr_data(rng, 600, K, const)
        fit = fit_polr(X, y)
        live = np.concatenate([np.ones(K - 1, bool), ~np.all(X == X[0], axis=0)])
        ref = np.linalg.inv(
            fd_polr_information(X[:, live[K - 1:]], y, K, fit.beta_hat[live])
        )
        got = fit.cov_hat[np.ix_(live, live)]
        assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()
        assert not fit.cov_hat[~live].any() and not fit.cov_hat[:, ~live].any()

    def test_unidentified_slope_is_separation(self):
        # z is nonzero only on two rows so far out along x that their levels
        # are certain: its information is exactly zero at the optimum
        rng = np.random.default_rng(0)
        n = 400
        x = rng.normal(size=n)
        y = ((x + rng.logistic(size=n))[:, None] > [-1.0, 1.0]).sum(axis=1)
        X = np.column_stack([np.ones(n + 2), np.r_[x, -100.0, 100.0],
                             np.r_[np.zeros(n), 1.0, 1.0]])
        with pytest.raises(PerfectSeparation, match="singular at optimum"):
            fit_polr(X, np.r_[y, 0, 2])

    def test_binary_matches_logistic(self):
        rng = np.random.default_rng(9)
        n = 2000
        x = rng.normal(size=n)
        p = 1 / (1 + np.exp(-(0.3 + 0.8 * x)))
        y = (rng.random(n) < p).astype(int)
        X = np.column_stack([np.ones(n), x])
        lg = fit_logistic(X, y.astype(float))
        po = fit_polr(X, y)
        # P(y=1) = expit(x b - cut): cut = -intercept, slope matches
        assert po.n_cutpoints == 1
        assert po.beta_hat[0] == pytest.approx(-lg.beta_hat[0], abs=1e-6)
        assert po.beta_hat[2] == pytest.approx(lg.beta_hat[1], abs=1e-6)
        assert po.cov_hat[2, 2] == pytest.approx(lg.cov_hat[1, 1], rel=1e-6)

    def test_intercept_only_cutpoints(self):
        y = np.repeat([0, 1, 2], [200, 300, 500])
        X = np.ones((1000, 1))
        fit = fit_polr(X, y)
        logit = lambda p: np.log(p / (1 - p))
        np.testing.assert_allclose(
            fit.beta_hat[:2], [logit(0.2), logit(0.5)], atol=1e-6
        )

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(10)
        n = 100_000
        x = rng.normal(size=n)
        cuts = np.array([-1.0, 0.5])
        eta = 0.7 * x
        u = rng.random(n)
        cdf1 = 1 / (1 + np.exp(-(cuts[0] - eta)))
        cdf2 = 1 / (1 + np.exp(-(cuts[1] - eta)))
        y = np.where(u < cdf1, 0, np.where(u < cdf2, 1, 2))
        fit = fit_polr(np.column_stack([np.ones(n), x]), y)
        assert fit.beta_hat[3] == pytest.approx(0.7, abs=0.05)
        np.testing.assert_allclose(fit.beta_hat[:2], cuts, atol=0.05)

    def test_cutpoints_increasing_and_probs_sum(self):
        rng = np.random.default_rng(11)
        y = rng.integers(0, 4, size=500)
        x = rng.normal(size=500)
        X = np.column_stack([np.ones(500), x])
        fit = fit_polr(X, y)
        assert (np.diff(fit.beta_hat[: fit.n_cutpoints]) > 0).all()
        probs = polr_category_probs(fit, X, fit.n_cutpoints)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_category(self):
        with pytest.raises(EmptyCategory):
            fit_polr(np.ones((10, 1)), np.repeat([0, 2], 5))


def collinear_design(n=40):
    """An intercept, x and 2x + 1: exactly collinear, also once fit_polr
    drops the constant column and adds its cutpoints."""
    x = np.random.default_rng(34).normal(size=n)
    return np.column_stack([np.ones(n), x, 2.0 * x + 1.0])


@pytest.mark.parametrize("family", ["linear", "logistic", "polr", "lmm"])
def test_collinear_design_rank_deficient(family):
    X = collinear_design()
    n = len(X)
    y = np.arange(n) % 3
    fit = {
        "linear": lambda: fit_linear_and_draw(RngStream(0), X, y.astype(float)),
        "logistic": lambda: fit_logistic(X, (y == 0).astype(float)),
        "polr": lambda: fit_polr(X, y),
        "lmm": lambda: fit_lmm_arrays(y.astype(float), X, [np.arange(n) // 4], "REML"),
    }[family]
    with pytest.raises(RankDeficient, match="rank deficient"):
        fit()


@pytest.mark.parametrize("info", [
    [[1.0, 2.0], [2.0, 1.0]],  # indefinite
    [[1.0, 1.0], [1.0, 1.0]],  # singular
    [[np.nan, 0.0], [0.0, 1.0]],  # numpy's Cholesky would pass this through
    [[np.inf, 0.0], [0.0, 1.0]],
])
def test_information_not_finite_or_not_pd_is_separation(info):
    with pytest.raises(PerfectSeparation, match="singular at optimum"):
        _inverse_information(np.array(info))


def test_inverse_information_is_symmetric_inverse():
    A = np.random.default_rng(35).normal(size=(6, 6))
    info = A @ A.T + np.eye(6)
    cov = _inverse_information(info)
    np.testing.assert_array_equal(cov, cov.T)
    np.testing.assert_allclose(cov @ info, np.eye(6), atol=1e-12)


def quasi_separated(seed=0, count=45):
    """Fits whose last covariate is nonzero only on 1-5 top-level rows, so
    its MLE is infinite while the other parameters stay finite."""
    gen = np.random.default_rng(seed)
    for _ in range(count):
        n, K, marked = int(gen.integers(30, 201)), int(gen.integers(2, 5)), int(gen.integers(1, 6))
        y = gen.integers(0, K, n)
        y[:K] = np.arange(K)
        top = np.flatnonzero(y == K - 1)
        rows = gen.choice(top, size=min(marked, top.size), replace=False)
        sep = np.zeros(n)
        sep[rows] = gen.uniform(0.5, 1.5, rows.size)
        yield np.column_stack([gen.normal(size=n), sep]), y, K


@pytest.mark.parametrize("family", ["logistic", "polr"])
def test_quasi_separation_is_not_convergence(family):
    # the score and the likelihood change vanish long before the slope
    # stops growing; a fit that stops there must not claim convergence
    for X, y, K in quasi_separated():
        try:
            if family == "logistic":
                fit = fit_logistic(np.column_stack([np.ones(len(y)), X]),
                                   (y == K - 1).astype(float))
            else:
                fit = fit_polr(X, y)
        except PerfectSeparation:
            continue
        assert not fit.converged, (family, len(y), K, fit.beta_hat[-1])


def one_way(rng, groups, per, sd_b, sd_e, mean=0.0):
    grp = np.repeat(np.arange(groups), per)
    y = mean + rng.normal(0, sd_b, groups)[grp] + rng.normal(0, sd_e, len(grp))
    return y, np.ones((len(grp), 1)), grp


class TestLmm:
    def test_balanced_one_way_matches_anova(self):
        rng = np.random.default_rng(12)
        y, X, grp = one_way(rng, 10, 5, 1.0, 0.7, mean=2.0)
        fit = fit_lmm_arrays(y, X, [grp], "REML")
        means = np.array([y[grp == g].mean() for g in range(10)])
        msw = sum(((y[grp == g] - means[g]) ** 2).sum() for g in range(10)) / (50 - 10)
        msb = 5 * ((means - y.mean()) ** 2).sum() / 9
        assert fit.var_components["residual"] == pytest.approx(msw, abs=1e-8)
        assert fit.var_components["level0"] == pytest.approx(
            max((msb - msw) / 5, 0.0), abs=1e-8
        )

    def test_zero_between_variance_boundary(self):
        rng = np.random.default_rng(13)
        per = 6
        # every group holds the same values, so group means are identical
        y0 = np.tile(rng.normal(size=per), 8)
        grp = np.repeat(np.arange(8), per)
        fit = fit_lmm_arrays(y0, np.ones((48, 1)), [grp], "REML")
        assert fit.var_components["level0"] == 0.0
        assert fit.boundary == ("level0",)

    def test_three_level_beats_deviance_grid(self):
        rng = np.random.default_rng(14)
        ns, nst, nw = 4, 5, 3
        school = np.repeat(np.arange(ns), nst * nw)
        student = np.repeat(np.arange(ns * nst), nw)
        n = ns * nst * nw
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (
            X @ [1.0, -0.3]
            + rng.normal(0, 0.05, ns)[school]
            + rng.normal(0, 0.25, ns * nst)[student]
            + rng.normal(0, 0.25, n)
        )
        fit = fit_lmm_arrays(y, X, [school, student], "ML")
        dev_fit = -2 * fit.loglik
        grid = np.linspace(1e-4, 0.2, 20)
        grid_min = min(
            deviance(y, X, [school, student], np.array(t), "ML")
            for t in itertools.product(grid, repeat=3)
        )
        assert dev_fit <= grid_min + 1e-9

    def test_reml_ml_fixed_effects_agree_balanced(self):
        rng = np.random.default_rng(15)
        y, X, grp = one_way(rng, 12, 4, 0.8, 0.5, mean=-1.0)
        fr = fit_lmm_arrays(y, X, [grp], "REML")
        fm = fit_lmm_arrays(y, X, [grp], "ML")
        np.testing.assert_allclose(fr.beta, fm.beta, atol=1e-8)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(16)
        y, X, grp = one_way(rng, 6, 5, 0.5, 1.0)
        X = np.column_stack([X, rng.normal(size=30)])
        perm = rng.permutation(30)
        a = fit_lmm_arrays(y, X, [grp], "REML")
        b = fit_lmm_arrays(y[perm], X[perm], [grp[perm]], "REML")
        np.testing.assert_allclose(a.beta, b.beta, atol=1e-8)
        assert a.var_components["level0"] == pytest.approx(
            b.var_components["level0"], abs=1e-8
        )

    def test_duplicated_column_rank_deficient(self):
        rng = np.random.default_rng(17)
        y, X, grp = one_way(rng, 6, 5, 0.5, 1.0)
        X2 = np.column_stack([X, X[:, 0]])
        with pytest.raises(RankDeficient):
            fit_lmm_arrays(y, X2, [grp], "REML")

    def test_optimum_beats_random_probes(self):
        rng = np.random.default_rng(18)
        y, X, grp = one_way(rng, 15, 4, 0.6, 0.9, mean=1.0)
        fit = fit_lmm_arrays(y, X, [grp], "ML")
        dev_fit = -2 * fit.loglik
        for _ in range(50):
            probe = rng.uniform(0.01, 3.0, size=2)
            assert dev_fit <= deviance(y, X, [grp], probe, "ML") + 1e-9


def nested_data(rng, sizes, sd_school, sd_student, sd_e):
    """Unbalanced schools of students with 1-3 rows each; student labels
    restart at 0 in every school, so they are reused across schools."""
    school, student = [], []
    for s, k in enumerate(sizes):
        rows = rng.integers(1, 4, k)
        school.append(np.full(rows.sum(), s))
        student.append(np.repeat(np.arange(k), rows))
    school, student = np.concatenate(school), np.concatenate(student)
    n = len(school)
    pair = np.unique(np.column_stack([school, student]), axis=0, return_inverse=True)[1]
    X = np.column_stack([np.ones(n), rng.normal(size=n), rng.integers(0, 2, n)])
    y = (
        X @ [0.5, 1.0, -0.4]
        + rng.normal(0, sd_school, len(sizes))[school]
        + rng.normal(0, sd_student, pair.max() + 1)[pair]
        + rng.normal(0, sd_e, n)
    )
    return y, X, school, student, pair


def dense_deviance(y, X, Zs, theta, criterion):
    """-2 log (restricted) likelihood from an explicit V."""
    n, p = X.shape
    V = theta[-1] * np.eye(n) + sum(s * Z @ Z.T for s, Z in zip(theta, Zs))
    Vi = np.linalg.inv(V)
    XtViX = X.T @ Vi @ X
    beta = np.linalg.solve(XtViX, X.T @ Vi @ y)
    r = y - X @ beta
    dev = np.linalg.slogdet(V)[1] + r @ Vi @ r
    if criterion == "REML":
        return dev + (n - p) * np.log(2 * np.pi) + np.linalg.slogdet(XtViX)[1]
    return dev + n * np.log(2 * np.pi)


def indicators(codes):
    return (codes[:, None] == np.arange(codes.max() + 1)).astype(float)


class TestNestedLmm:
    def test_deviance_matches_dense_v(self):
        rng = np.random.default_rng(21)
        y, X, school, student, pair = nested_data(rng, [4, 1, 6, 3, 5], 0.6, 0.8, 0.5)
        assert (np.bincount(pair) == 1).any()  # singleton students
        Zs = [indicators(school), indicators(pair)]
        thetas = (
            [0.3, 0.7, 0.25], [1e-3, 2.0, 0.4], [4.0, 1e-2, 0.9],
            # boundary points: a zero component drops its level
            [0.0, 0.7, 0.25], [0.3, 0.0, 0.25], [0.0, 0.0, 0.4],
        )
        for theta in thetas:
            for crit in ("ML", "REML"):
                ref = dense_deviance(y, X, Zs, theta, crit)
                got = deviance(y, X, [school, student], np.array(theta), crit)
                assert got == pytest.approx(ref, rel=1e-10)
                one = deviance(y, X, [pair], np.array(theta[1:]), crit)
                assert one == pytest.approx(
                    dense_deviance(y, X, Zs[1:], theta[1:], crit), rel=1e-10
                )

    @pytest.mark.parametrize("crit", ["ML", "REML"])
    def test_gradient_matches_central_differences(self, crit):
        from longmi import lmm

        rng = np.random.default_rng(22)
        y, X, school, student, _ = nested_data(rng, [5, 2, 7, 4, 6, 3], 0.6, 0.8, 0.5)
        blocks = lmm._Blocks(X, y, [school, student])
        theta = np.array([0.35, 0.5, 0.3])
        grad = lmm._gradient(blocks, theta, crit)
        for k in range(3):
            h = np.zeros(3)
            h[k] = 1e-5 * theta[k]
            fd = (
                lmm._deviance(blocks, theta + h, crit)
                - lmm._deviance(blocks, theta - h, crit)
            ) / (2 * h[k])
            assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("crit", ["ML", "REML"])
    @pytest.mark.parametrize("levels", [1, 2])
    def test_hessian_matches_central_differences(self, crit, levels):
        from longmi import lmm

        rng = np.random.default_rng(29)
        y, X, school, student, pair = nested_data(
            rng, rng.integers(8, 16, 12), 0.3, 0.5, 0.4
        )
        codes = [school, student] if levels == 2 else [pair]
        blocks = lmm._Blocks(X, y, codes)

        def terms(x):
            """Profiled d(deviance)/d(log rho) and its analytic Hessian."""
            _, s2, grad, _, _, hess = lmm._deviance_core(blocks, np.exp(x), crit)
            return grad[:-1] * np.exp(x) * s2, hess

        theta = np.array(list(fit_lmm_arrays(y, X, codes, crit).var_components.values()))
        opt = np.log(theta[:-1] / theta[-1])
        near_zero = opt.copy()
        near_zero[0] = np.log(1e-4)
        for x in (np.zeros(levels), opt, near_zero):
            fd = fd_jacobian(lambda v: terms(v)[0], x)
            np.testing.assert_allclose(
                terms(x)[1], fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max()
            )

    @pytest.mark.parametrize("crit", ["ML", "REML"])
    def test_one_deviance_evaluation_per_newton_step(self, crit, monkeypatch):
        from longmi import lmm

        rng = np.random.default_rng(27)
        y, X, school, student, pair = nested_data(
            rng, rng.integers(20, 41, 30), 0.08, 0.25, 0.25
        )
        core, calls = lmm._deviance_core, []
        monkeypatch.setattr(
            lmm, "_deviance_core", lambda *a, **k: calls.append(1) or core(*a, **k)
        )
        for codes in ([pair], [school, student]):
            calls.clear()
            fit = fit_lmm_arrays(y, X, codes, crit)
            assert fit.converged and fit.boundary == ()
            assert 0 < len(calls) <= 2 * fit.n_iter

    def test_school_variance_on_boundary_equals_one_level_fit(self):
        rng = np.random.default_rng(23)
        # every school holds the same students' values: identical school means
        per_school, rows = 5, 3
        y1 = np.repeat(rng.normal(0, 0.8, per_school), rows) + rng.normal(
            0, 0.5, per_school * rows
        )
        x1 = rng.normal(size=per_school * rows)
        y, x = np.tile(y1, 8), np.tile(x1, 8)
        school = np.repeat(np.arange(8), per_school * rows)
        student = np.tile(np.repeat(np.arange(per_school), rows), 8)
        X = np.column_stack([np.ones(len(y)), x])
        fit = fit_lmm_arrays(y, X, [school, student], "REML")
        assert fit.boundary == ("level0",)
        assert fit.var_components["level0"] == 0.0
        one = fit_lmm_arrays(y, X, [school * per_school + student], "REML")
        assert one.boundary == ()
        np.testing.assert_allclose(fit.beta, one.beta, atol=1e-10)
        np.testing.assert_allclose(fit.se, one.se, atol=1e-10)
        assert fit.var_components["level1"] == pytest.approx(
            one.var_components["level0"], rel=1e-10
        )
        assert fit.var_components["residual"] == pytest.approx(
            one.var_components["residual"], rel=1e-10
        )
        assert fit.loglik == pytest.approx(one.loglik, abs=1e-9)
        # the nested fit's Newton steps before dropping the school level count
        assert fit.n_iter > one.n_iter

    def test_floored_school_level_drops_alone(self):
        # no school effect: ML stops with the school ratio under the floor
        # while the student ratio's gradient has not yet vanished; only the
        # school level is dropped, and the fit converges
        rng = np.random.default_rng(2)
        school = np.repeat(np.arange(8), 20)
        student = np.repeat(np.arange(80), 2)
        x = rng.normal(size=160)
        y = 1.0 + 0.5 * x + rng.normal(0, 0.5, 80)[student] + rng.normal(size=160)
        X = np.column_stack([np.ones(160), x])
        fit = fit_lmm_arrays(y, X, [school, student], "ML")
        assert fit.converged and fit.boundary == ("level0",)
        assert fit.var_components["level0"] == 0.0
        one = fit_lmm_arrays(y, X, [student], "ML")
        assert fit.loglik == pytest.approx(one.loglik, abs=1e-9)

    def test_student_variance_on_boundary(self):
        rng = np.random.default_rng(24)
        # within a school every student gets a permutation of the same
        # values, so student means never differ inside a school
        n_school, per_school, rows = 10, 4, 3
        base = rng.normal(0, 0.5, (n_school, rows))
        y = np.concatenate([
            s_eff + rng.permuted(np.tile(base[s], (per_school, 1)), axis=1).ravel()
            for s, s_eff in enumerate(rng.normal(2.0, 1.0, n_school))
        ])
        school = np.repeat(np.arange(n_school), per_school * rows)
        student = np.tile(np.repeat(np.arange(per_school), rows), n_school)
        fit = fit_lmm_arrays(y, np.ones((len(y), 1)), [school, student], "REML")
        assert fit.boundary == ("level1",)
        assert fit.var_components["level1"] == 0.0
        assert fit.var_components["level0"] > 0.0

    @pytest.mark.parametrize("crit", ["ML", "REML"])
    def test_small_school_variance_stays_interior(self, crit):
        from longmi import lmm

        # shaped like the simulated cohort: the school ratio's optimum (about
        # 0.1) lies far below the start at 1, so a first Newton step can
        # overshoot towards zero; the fit must come back to the interior
        rng = np.random.default_rng(27)
        y, X, school, student, _ = nested_data(
            rng, rng.integers(20, 41, 30), 0.08, 0.25, 0.25
        )
        fit = fit_lmm_arrays(y, X, [school, student], crit)
        assert fit.boundary == ()
        assert fit.var_components["level0"] > 0.0
        theta = np.array(list(fit.var_components.values()))
        grad = lmm._gradient(lmm._Blocks(X, y, [school, student]), theta, crit)
        assert np.max(np.abs(grad)) < 1e-6 * abs(2.0 * fit.loglik)
        assert fit.n_iter <= 10

    @pytest.mark.parametrize("seed, sizes, sd_school, crit", [
        (141, (15, 8, 12), 0.05, "ML"), (302, (12, 5, 12), 0.1, "REML"),
    ])
    def test_long_newton_step_keeps_its_direction(self, seed, sizes, sd_school, crit):
        from longmi import lmm

        # the first Newton step overshoots in both log ratios; cut
        # component by component to +-4 it pointed uphill, and every
        # later step halved to nothing until the iteration cap
        rng = np.random.default_rng(seed)
        n_school, lo, hi = sizes
        y, X, school, student, _ = nested_data(
            rng, rng.integers(lo, hi, n_school), sd_school, 1.0, 0.3
        )
        fit = fit_lmm_arrays(y, X, [school, student], crit)
        assert fit.converged and fit.boundary == ()
        theta = np.array(list(fit.var_components.values()))
        grad = lmm._gradient(lmm._Blocks(X, y, [school, student]), theta, crit)
        assert np.max(np.abs(grad)) < 1e-6 * abs(2.0 * fit.loglik)
        assert fit.n_iter <= 10

    @pytest.mark.parametrize("crit", ["ML", "REML"])
    def test_response_mean_costs_no_precision(self, crit):
        # shifting y by 1e4 moves the intercept alone; summing the
        # uncentred response lost the components' last digits, and the
        # fit ended unconverged
        for seed in (2, 5, 9):
            rng = np.random.default_rng(seed)
            y, X, school, _, pair = nested_data(
                rng, list(rng.integers(3, 9, 10)), 0.3, 0.8, 0.5
            )
            a = fit_lmm_arrays(y, X, [school, pair], crit)
            b = fit_lmm_arrays(y + 1e4, X, [school, pair], crit)
            assert a.converged and b.converged
            for k, v in a.var_components.items():
                assert b.var_components[k] == pytest.approx(v, rel=1e-8)
            np.testing.assert_allclose(b.beta - a.beta, [1e4, 0.0, 0.0],
                                       rtol=0, atol=1e-8 * a.se.min())
            assert b.loglik == pytest.approx(a.loglik, rel=1e-10)

    def test_row_permutation_and_relabelling_invariance(self):
        rng = np.random.default_rng(25)
        y, X, school, _, pair = nested_data(rng, [6, 3, 8, 5, 4, 7], 0.5, 0.7, 0.5)
        # globally unique student ids in shuffled order ...
        ids = rng.permutation(pair.max() + 1)[pair]
        a = fit_lmm_arrays(y, X, [school, ids], "REML")
        # ... against rows permuted and students relabelled 0..k per school
        perm = rng.permutation(len(y))
        local = np.empty_like(ids)
        for s in np.unique(school):
            rows = school == s
            local[rows] = np.unique(ids[rows], return_inverse=True)[1]
        b = fit_lmm_arrays(y[perm], X[perm], [school[perm], local[perm]], "REML")
        np.testing.assert_allclose(a.beta, b.beta, atol=1e-8)
        np.testing.assert_allclose(a.se, b.se, atol=1e-8)
        for k, v in a.var_components.items():
            assert b.var_components[k] == pytest.approx(v, abs=1e-8)
        assert a.loglik == pytest.approx(b.loglik, abs=1e-8)

    def test_three_groupings_rejected(self):
        rng = np.random.default_rng(26)
        y, X, grp = one_way(rng, 6, 4, 0.5, 1.0)
        with pytest.raises(UnsupportedNesting, match="at most 2"):
            fit_lmm_arrays(y, X, [grp // 2, grp, np.arange(len(y))], "REML")
        with pytest.raises(UnsupportedNesting, match="at most 2"):
            deviance(y, X, [grp // 2, grp, grp], np.ones(4), "REML")


class TestFitLmmFormulaInterface:
    @staticmethod
    def make_dataset(seed=19, n_units=40):
        from longmi.table import ColumnSpec, Dataset

        rng = np.random.default_rng(seed)
        ids = np.repeat(np.arange(n_units), 3)
        x = rng.normal(size=3 * n_units)
        g = rng.integers(0, 3, 3 * n_units).astype(float)
        y = 1 + 0.5 * x + (g == 2) * 0.3 + rng.normal(0, 0.5, n_units)[ids]
        y = y + rng.normal(0, 0.5, 3 * n_units)
        return Dataset.build(
            [
                ColumnSpec("id", "continuous", "unit-id"),
                ColumnSpec("time", "continuous", "time"),
                ColumnSpec("x", "continuous", "analysis"),
                ColumnSpec("g", "categorical", "analysis", ("a", "b", "c")),
                ColumnSpec("y", "continuous", "analysis"),
            ],
            {
                "id": ids,
                "time": np.tile([1.0, 2.0, 3.0], n_units),
                "x": x,
                "g": g,
                "y": y,
            },
            shape_kind="long",
        )

    def test_factor_expansion_and_components(self):
        from longmi.lmm import fit_lmm

        fit = fit_lmm("y ~ x + factor(g) + (1|id)", self.make_dataset())
        assert fit.names == ["(Intercept)", "x", "g_b", "g_c"]
        assert set(fit.var_components) == {"id", "residual"}
        assert fit.converged

    def test_no_random_part_is_plain_regression(self):
        from longmi.lmm import fit_lmm

        fit = fit_lmm("y ~ x", self.make_dataset())
        assert fit.var_components.keys() == {"residual"}
        assert fit.grouping == ()

    def test_masked_model_variable_rejected(self):
        from longmi.errors import IncompleteModelData
        from longmi.lmm import fit_lmm
        from longmi.table import Dataset

        d = self.make_dataset()
        values = d.values.copy()
        values[0, d.col_index("x")] = np.nan
        d2 = Dataset(d.columns, values, shape_kind="long", validate=False)
        with pytest.raises(IncompleteModelData):
            fit_lmm("y ~ x + (1|id)", d2)

    def test_unknown_column_at_bind(self):
        from longmi.errors import UnknownColumn
        from longmi.lmm import fit_lmm

        with pytest.raises(UnknownColumn):
            fit_lmm("y ~ nope + (1|id)", self.make_dataset())


def no_cluster_variance_dataset(seed=28, n_school=6, per_school=5, rows=4):
    """Every student holds the same (x, y) rows, so no student or school
    mean differs from another and both components' optima are zero."""
    from longmi.table import ColumnSpec, Dataset

    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=rows)
    y1 = 1.0 + 0.5 * x1 + rng.normal(0, 0.5, rows)
    n_units = n_school * per_school
    return Dataset.build(
        [
            ColumnSpec("school", "continuous", "cluster-id"),
            ColumnSpec("id", "continuous", "unit-id"),
            ColumnSpec("time", "continuous", "time"),
            ColumnSpec("x", "continuous", "analysis"),
            ColumnSpec("y", "continuous", "analysis"),
        ],
        {
            "school": np.repeat(np.arange(n_school), per_school * rows),
            "id": np.repeat(np.arange(n_units), rows),
            "time": np.tile(np.arange(1.0, rows + 1), n_units),
            "x": np.tile(x1, n_units),
            "y": np.tile(y1, n_units),
        },
        shape_kind="long",
    )


class TestZeroLevelLmm:
    """A formula with no random part is the zero-level case of the
    profiled deviance: its log-likelihood is R's ``logLik.lm``."""

    @pytest.mark.parametrize("crit", ["ML", "REML"])
    def test_both_components_on_boundary_equal_fixed_only_fit(self, crit):
        from longmi.lmm import fit_lmm

        d = no_cluster_variance_dataset()
        nested = fit_lmm("y ~ x + (1|school/id)", d, crit)
        flat = fit_lmm("y ~ x", d, crit)
        assert nested.boundary == ("school", "id")
        assert nested.var_components["school"] == nested.var_components["id"] == 0.0
        np.testing.assert_allclose(nested.beta, flat.beta, rtol=1e-12)
        np.testing.assert_allclose(nested.se, flat.se, rtol=1e-12)
        assert nested.var_components["residual"] == pytest.approx(
            flat.var_components["residual"], rel=1e-12
        )
        assert nested.loglik == pytest.approx(flat.loglik, rel=1e-12)

    @staticmethod
    def fixed_only(crit):
        from longmi.formula import build_design
        from longmi.lmm import fit_lmm

        d = TestFitLmmFormulaInterface.make_dataset()
        formula = parse_formula("y ~ x + factor(g)")
        y, X, _ = build_design(d, formula)
        return fit_lmm(formula, d, crit), y, X, d.column("id").astype(int)

    @pytest.mark.parametrize("crit", ["ML", "REML"])
    def test_loglik_is_deviance_at_zero_components(self, crit):
        fit, y, X, ids = self.fixed_only(crit)
        s2 = fit.var_components["residual"]
        assert fit.loglik == pytest.approx(
            -0.5 * deviance(y, X, [ids], np.array([0.0, s2]), crit), rel=1e-12
        )

    @pytest.mark.parametrize("crit", ["ML", "REML"])
    def test_loglik_matches_loglik_lm(self, crit):
        fit, y, X, _ = self.fixed_only(crit)
        n, p = X.shape
        q, r = np.linalg.qr(X)
        resid = y - X @ np.linalg.solve(r, q.T @ y)
        dof = n - p if crit == "REML" else n
        s2 = float(resid @ resid) / dof
        ll = -0.5 * dof * (np.log(2 * np.pi) + 1.0 + np.log(s2))
        if crit == "REML":
            ll -= np.sum(np.log(np.abs(np.diag(r))))
        assert fit.var_components["residual"] == pytest.approx(s2, rel=1e-12)
        assert fit.loglik == pytest.approx(ll, rel=1e-12)

    @pytest.mark.parametrize("crit", ["ML", "REML"])
    def test_array_fit_without_groupings(self, crit):
        fit, y, X, _ = self.fixed_only(crit)
        arr = fit_lmm_arrays(y, X, [], crit, names=fit.names)
        np.testing.assert_array_equal(arr.beta, fit.beta)
        np.testing.assert_array_equal(arr.se, fit.se)
        assert arr.var_components == fit.var_components
        assert arr.loglik == fit.loglik
        assert (arr.grouping, arr.boundary, arr.converged, arr.n_iter) == ((), (), True, 0)
