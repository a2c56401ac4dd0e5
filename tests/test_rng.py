import warnings

import numpy as np
import pytest
from scipy import stats

from longmi.errors import (
    EmptyInterval,
    InvalidDof,
    NotPositiveDefinite,
    SingularObservedBlock,
)
from longmi.rng import (
    MvnParams,
    RngStream,
    chol,
    conditional_mvn,
    inv_wishart_draw,
    mvn_draw,
    trunc_normal_array,
    trunc_normal_draw,
    wishart_precision_draw,
)


def random_spd(rng, p):
    a = rng.normal(size=(p, p))
    return a @ a.T + p * np.eye(p)


class TestStreams:
    def test_same_identifier_bit_identical(self):
        a = RngStream(123, 4).normal(size=1000)
        b = RngStream(123, 4).normal(size=1000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).normal(size=2000)
        b = RngStream(123, 1).normal(size=2000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.08
        assert not np.array_equal(a, b)

    def test_substream_deterministic(self):
        a = RngStream(9, 2).substream(5).normal(size=10)
        b = RngStream(9, 2).substream(5).normal(size=10)
        np.testing.assert_array_equal(a, b)


class TestMvnDraw:
    def test_identity_cov_mean_zero(self):
        rng = RngStream(1)
        draws = mvn_draw(rng, MvnParams(np.zeros(3), np.eye(3)), size=100_000)
        assert np.abs(draws.mean(axis=0)).max() < 0.02

    def test_correlated_pair(self):
        rng = RngStream(2)
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        draws = mvn_draw(rng, MvnParams(np.zeros(2), cov), size=100_000)
        assert np.corrcoef(draws.T)[0, 1] == pytest.approx(0.8, abs=0.02)

    def test_scalar_variance(self):
        rng = RngStream(3)
        draws = mvn_draw(rng, MvnParams([0.0], [[4.0]]), size=100_000)
        assert draws.var() == pytest.approx(4.0, rel=0.03)

    def test_fixed_z_equals_mean_plus_lz(self):
        params = MvnParams([1.0, -1.0], [[2.0, 0.5], [0.5, 1.0]])
        z = RngStream(7).normal(size=2)
        expected = params.mean + params.chol @ z
        np.testing.assert_array_equal(mvn_draw(RngStream(7), params), expected)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            MvnParams(np.zeros(2), [[1.0, 2.0], [2.0, 1.0]])


class TestConditionalMvn:
    def test_bivariate_formula(self):
        rho = 0.6
        params = MvnParams(np.zeros(2), [[1.0, rho], [rho, 1.0]])
        cond = conditional_mvn(params, [1], [1.0])
        assert cond.mean[0] == pytest.approx(rho)
        assert cond.cov[0, 0] == pytest.approx(1 - rho**2)

    def test_independence(self):
        params = MvnParams([1.0, 2.0], np.diag([3.0, 4.0]))
        cond = conditional_mvn(params, [1], [9.0])
        assert cond.mean[0] == pytest.approx(1.0)
        assert cond.cov[0, 0] == pytest.approx(3.0)

    def test_matches_partitioned_inverse_oracle(self):
        # dense linear-algebra oracle: invert the full matrix and read the
        # conditional off the precision blocks
        rng = np.random.default_rng(11)
        for trial in range(100):
            p = rng.integers(3, 6)
            cov = random_spd(rng, p)
            mean = rng.normal(size=p)
            k = rng.integers(1, p)
            obs = np.sort(rng.choice(p, size=k, replace=False))
            mis = np.setdiff1d(np.arange(p), obs)
            vals = rng.normal(size=k)

            prec = np.linalg.inv(cov)
            prec_mm = prec[np.ix_(mis, mis)]
            cov_cond = np.linalg.inv(prec_mm)
            mean_cond = mean[mis] - cov_cond @ prec[np.ix_(mis, obs)] @ (
                vals - mean[obs]
            )

            got = conditional_mvn(MvnParams(mean, cov), obs, vals)
            np.testing.assert_allclose(got.mean, mean_cond, atol=1e-10)
            np.testing.assert_allclose(got.cov, cov_cond, atol=1e-10)

    def test_conditional_cov_ignores_observed_values(self):
        params = MvnParams(np.zeros(3), random_spd(np.random.default_rng(5), 3))
        a = conditional_mvn(params, [0], [5.0])
        b = conditional_mvn(params, [0], [-100.0])
        np.testing.assert_array_equal(a.cov, b.cov)

    def test_singular_observed_block(self):
        cov = np.eye(3)
        cov[1, 1] = 0.0
        params = MvnParams.__new__(MvnParams)
        object.__setattr__(params, "mean", np.zeros(3))
        object.__setattr__(params, "cov", cov)
        with pytest.raises(SingularObservedBlock):
            conditional_mvn(params, [1], [0.0])


class TestInvWishart:
    def test_univariate_reduces_to_inv_chisq(self):
        rng = RngStream(4)
        scale, dof = 3.0, 7.0
        draws = inv_wishart_draw(rng, [[scale]], dof, size=100_000)
        assert draws[:, 0, 0].mean() == pytest.approx(scale / (dof - 2), rel=0.03)

    def test_bivariate_mean(self):
        rng = RngStream(5)
        scale = np.array([[2.0, 0.6], [0.6, 1.0]])
        dof = 8.0
        draws = inv_wishart_draw(rng, scale, dof, size=100_000)
        expected = scale / (dof - 2 - 1)
        np.testing.assert_allclose(draws.mean(axis=0), expected, rtol=0.05)

    def test_every_draw_spd(self):
        rng = RngStream(6)
        scale = random_spd(np.random.default_rng(0), 4)
        for _ in range(200):
            np.linalg.cholesky(inv_wishart_draw(rng, scale, 6.0))

    def test_invalid_dof(self):
        with pytest.raises(InvalidDof):
            inv_wishart_draw(RngStream(0), np.eye(3), 1.5)

    def test_stacked_scales_per_entry_dof(self):
        rng = RngStream(8)
        gen = np.random.default_rng(1)
        scales = np.array([random_spd(gen, 2) for _ in range(3)])
        dofs = np.array([6.0, 9.0, 14.0])
        reps = 40_000
        draws = inv_wishart_draw(
            rng, np.tile(scales, (reps, 1, 1)), np.tile(dofs, reps)
        ).reshape(reps, 3, 2, 2)
        expected = scales / (dofs - 2 - 1)[:, None, None]
        np.testing.assert_allclose(draws.mean(axis=0), expected, rtol=0.05)

    def test_is_the_covariance_of_the_precision_draw(self):
        scale = random_spd(np.random.default_rng(3), 4)
        one = inv_wishart_draw(RngStream(13), scale, 9.0)
        np.testing.assert_array_equal(
            one, wishart_precision_draw(RngStream(13), scale[None], 9.0)[1][0]
        )
        many = inv_wishart_draw(RngStream(14), scale, 9.0, size=6)
        np.testing.assert_array_equal(
            many, wishart_precision_draw(RngStream(14), np.tile(scale, (6, 1, 1)), 9.0)[1]
        )

    def test_stacked_invalid_dof(self):
        with pytest.raises(InvalidDof):
            inv_wishart_draw(
                RngStream(0), np.tile(np.eye(3), (3, 1, 1)), np.array([5.0, 2.0, 5.0])
            )


class TestWishartPrecision:
    def test_moments_per_entry_dof(self):
        # the precision is Wishart(dof, inv(S)), the covariance its inverse
        rng = RngStream(9)
        gen = np.random.default_rng(2)
        scales = np.array([random_spd(gen, 3) for _ in range(3)])
        dofs = np.array([9.0, 12.0, 20.0])
        reps = 40_000
        Q, omega = wishart_precision_draw(
            rng, np.tile(scales, (reps, 1, 1)), np.tile(dofs, reps)
        )
        Q, omega = Q.reshape(reps, 3, 3, 3), omega.reshape(reps, 3, 3, 3)
        np.testing.assert_allclose(
            Q.mean(axis=0), dofs[:, None, None] * np.linalg.inv(scales), rtol=0.03,
            atol=0.01 * np.abs(np.linalg.inv(scales)).max(),
        )
        np.testing.assert_allclose(
            omega.mean(axis=0), scales / (dofs - 3 - 1)[:, None, None], rtol=0.05,
            atol=0.01 * np.abs(scales).max(),
        )
        np.testing.assert_allclose(Q[:50] @ omega[:50], np.broadcast_to(
            np.eye(3), (50, 3, 3, 3)), atol=1e-10)

    def test_one_entry_dof_array_draws_as_its_scalar(self):
        scale = random_spd(np.random.default_rng(4), 11)[None]
        a = wishart_precision_draw(RngStream(12), scale, np.array([30.0]))
        b = wishart_precision_draw(RngStream(12), scale, 30.0)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        with pytest.raises(InvalidDof):
            wishart_precision_draw(RngStream(0), scale, np.array([10.0]))

    def test_invalid_dof_and_scale(self):
        with pytest.raises(InvalidDof):
            wishart_precision_draw(RngStream(0), np.eye(3)[None], 1.5)
        with pytest.raises(NotPositiveDefinite):
            wishart_precision_draw(RngStream(0), -np.eye(3)[None], 5.0)


class TestChol:
    def test_stack_message_names_matrix_size(self):
        bad = np.tile(-np.eye(3), (5, 1, 1))
        with pytest.raises(NotPositiveDefinite, match="3x3"):
            chol(bad)


class TestTruncNormal:
    def test_half_normal_mean(self):
        rng = RngStream(8)
        draws = trunc_normal_draw(rng, 0.0, 1.0, 0.0, np.inf, size=100_000)
        assert draws.mean() == pytest.approx(np.sqrt(2 / np.pi), abs=0.01)

    def test_unbounded_matches_plain_normal(self):
        rng = RngStream(9)
        draws = trunc_normal_draw(rng, 1.5, 2.0, size=100_000)
        assert draws.mean() == pytest.approx(1.5, abs=0.03)
        assert draws.std() == pytest.approx(2.0, rel=0.02)

    def test_far_tail_support(self):
        rng = RngStream(10)
        draws = trunc_normal_draw(rng, 0.0, 1.0, 5.0, 6.0, size=20_000)
        assert (draws > 5.0).all() and (draws < 6.0).all()

    def test_far_left_tail(self):
        rng = RngStream(11)
        draws = trunc_normal_draw(rng, 0.0, 1.0, -np.inf, -6.0, size=5_000)
        assert (draws < -6.0).all()
        assert np.isfinite(draws).all()

    def test_empty_interval(self):
        with pytest.raises(EmptyInterval):
            trunc_normal_draw(RngStream(0), 0.0, 1.0, 2.0, 2.0)


# (mean, sd, lower, upper) of each law case: the sampler's proposal regions
# (normal, folded normal, uniform and exponential), the probit latent's
# one-sided intervals at 0, a short interval and both far tails
LAW_CASES = {
    "normal, across 0": (0.0, 1.0, -2.0, 2.0),
    "folded normal, 0 <= lo < 0.257": (0.0, 1.0, 0.1, np.inf),
    "uniform, short across 0": (0.0, 1.0, -0.3, 0.4),
    "uniform, short in a tail": (0.0, 1.0, 2.0, 2.5),
    "exponential, tail": (0.0, 1.0, 0.5, np.inf),
    "exponential, long two-sided": (0.0, 1.0, 1.0, 6.0),
    "above 0, mean -3": (-3.0, 1.0, 0.0, np.inf),
    "above 0, mean 0": (0.0, 1.0, 0.0, np.inf),
    "above 0, mean 3": (3.0, 1.0, 0.0, np.inf),
    "below 0, mean -3": (-3.0, 1.0, -np.inf, 0.0),
    "below 0, mean 3": (3.0, 1.0, -np.inf, 0.0),
    "scaled, short": (1.5, 2.0, 0.5, 1.5),
    "far right tail": (0.0, 1.0, 8.0, np.inf),
    "far right, two-sided": (0.0, 1.0, 5.0, 6.0),
    "far left tail": (0.0, 1.0, -np.inf, -8.0),
}


def _check_law(draws, mean, sd, lower, upper):
    """KS test against scipy's truncnorm, plus the mean and the variance
    within four standard errors."""
    ref = stats.truncnorm((lower - mean) / sd, (upper - mean) / sd, loc=mean, scale=sd)
    n = draws.size
    m, v, _, k = (float(x) for x in ref.stats(moments="mvsk"))
    assert ((draws > lower) & (draws < upper)).all()
    assert stats.kstest(draws, ref.cdf).pvalue > 0.01
    assert abs(draws.mean() - m) < 4 * np.sqrt(v / n)
    assert abs(draws.var() - v) < 4 * v * np.sqrt((2 + k) / n)


class TestTruncNormalLaw:
    @pytest.mark.parametrize("case", list(LAW_CASES))
    def test_matches_scipy_truncnorm(self, case):
        mean, sd, lower, upper = LAW_CASES[case]
        seed = list(LAW_CASES).index(case)
        draws = trunc_normal_draw(RngStream(500 + seed), mean, sd, lower, upper, size=20_000)
        _check_law(draws, mean, sd, lower, upper)

    def test_mixed_intervals_keep_their_own_law(self):
        # one call over interleaved intervals of every region: each
        # element's draw lands back in its own place
        cases = [c for c in LAW_CASES.values() if c[1] == 1.0]
        which = np.tile(np.arange(len(cases)), 4_000)
        mean, _, lower, upper = (np.array(col)[which] for col in zip(*cases))
        z = trunc_normal_array(RngStream(77), mean, 1.0, lower, upper)
        for i, (mu, sd, lo, hi) in enumerate(cases):
            _check_law(z[which == i], mu, sd, lo, hi)

    def test_draws_take_the_shape_of_the_intervals(self):
        mean = np.arange(12.0).reshape(3, 4) - 6.0
        z = trunc_normal_array(RngStream(5), mean, 1.0, 0.0, np.inf)
        assert z.shape == (3, 4) and (z > 0.0).all()
        z = trunc_normal_array(RngStream(5), 0.0, 1.0, np.zeros((2, 1)), np.ones(3))
        assert z.shape == (2, 3) and ((z > 0.0) & (z < 1.0)).all()

    def test_infinite_bounds_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lower, upper in ((-np.inf, np.inf), (-np.inf, 0.0), (0.0, np.inf),
                                 (-np.inf, -40.0), (40.0, np.inf)):
                for mean in (-50.0, 0.0, 50.0):
                    trunc_normal_draw(RngStream(3), mean, 1.0, lower, upper, size=200)

    def test_nan_bound_is_an_empty_interval(self):
        with pytest.raises(EmptyInterval):
            trunc_normal_array(RngStream(0), np.zeros(2), 1.0,
                               np.array([0.0, np.nan]), np.full(2, np.inf))
