import math

import numpy as np
import pytest

from longmi.errors import MisalignedParams, TooFewImputations
from longmi.lmm import LmmFit
from longmi.pooling import pool
from longmi.table import ColumnSpec, Dataset


def make_fit(names, est, se, comps=None, converged=True):
    return LmmFit(
        names=list(names),
        beta=np.asarray(est, dtype=float),
        se=np.asarray(se, dtype=float),
        var_components=comps or {"residual": 1.0},
        loglik=0.0,
        criterion="REML",
        grouping=(),
        converged=converged,
        boundary=(),
        n_obs=10,
        n_iter=1,
    )


class TestPool:
    def test_hand_example(self):
        fits = [make_fit(["b"], [q], [1.0]) for q in (1.0, 2.0, 3.0)]
        out = pool(fits)
        p = out["b"]
        assert p.estimate == pytest.approx(2.0, abs=1e-10)
        assert p.within == pytest.approx(1.0, abs=1e-10)
        assert p.between == pytest.approx(1.0, abs=1e-10)
        assert p.total == pytest.approx(1.0 + 4.0 / 3.0, abs=1e-10)
        assert p.se == pytest.approx(math.sqrt(7.0 / 3.0), abs=1e-10)
        assert p.se == pytest.approx(1.5275252316519468, abs=1e-10)

    def test_zero_between_variance(self):
        fits = [make_fit(["b"], [1.5], [0.4]) for _ in range(5)]
        out = pool(fits)
        p = out["b"]
        assert p.between == 0.0
        assert p.total == p.within
        assert math.isinf(p.df)
        assert p.fmi == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        base = [
            make_fit(["a", "b"], rng.normal(size=2), rng.uniform(0.1, 1, 2))
            for _ in range(7)
        ]
        ref = pool(base)
        for _ in range(5):
            perm = list(rng.permutation(7))
            shuffled = pool([base[i] for i in perm])
            for pa, pb in zip(ref.params, shuffled.params):
                assert pa.estimate == pytest.approx(pb.estimate, abs=1e-12)
                assert pa.total == pytest.approx(pb.total, abs=1e-12)
                assert pa.df == pytest.approx(pb.df, rel=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=4)
        s = rng.uniform(0.2, 0.8, size=4)
        a, b = 2.5, -3.0
        out1 = pool([make_fit(["x"], [qi], [si]) for qi, si in zip(q, s)])
        out2 = pool(
            [make_fit(["x"], [a + b * qi], [abs(b) * si]) for qi, si in zip(q, s)]
        )
        assert out2["x"].estimate == pytest.approx(a + b * out1["x"].estimate, abs=1e-12)
        assert out2["x"].se == pytest.approx(abs(b) * out1["x"].se, abs=1e-12)

    def test_df_blows_up_as_between_vanishes(self):
        eps = 1e-13
        fits = [make_fit(["b"], [1.0 + eps * i], [1.0]) for i in range(3)]
        out = pool(fits)
        assert out["b"].df > 1e12

    def test_total_identity(self):
        rng = np.random.default_rng(2)
        fits = [
            make_fit(["b"], [rng.normal()], [rng.uniform(0.5, 1.5)])
            for _ in range(6)
        ]
        p = pool(fits)["b"]
        assert p.total - p.within == pytest.approx((1 + 1 / 6) * p.between, abs=1e-12)

    def test_variance_components_arithmetic_mean(self):
        fits = [
            make_fit(["b"], [0.0], [1.0], comps={"id": v, "residual": 2 * v})
            for v in (1.0, 2.0, 3.0)
        ]
        out = pool(fits)
        assert out.var_components == {"id": 2.0, "residual": 4.0}

    def test_strict_mode_drops_nonconverged(self):
        fits = [make_fit(["b"], [v], [1.0]) for v in (1.0, 2.0, 3.0)]
        fits.append(make_fit(["b"], [99.0], [1.0], converged=False))
        loose = pool(fits)
        assert loose.m == 4 and loose.n_nonconverged == 1
        strict = pool(fits, strict=True)
        assert strict.m == 3
        assert strict["b"].estimate == pytest.approx(2.0)

    def test_errors(self):
        with pytest.raises(TooFewImputations):
            pool([make_fit(["b"], [1.0], [1.0])])
        with pytest.raises(MisalignedParams):
            pool([make_fit(["a"], [1.0], [1.0]), make_fit(["b"], [1.0], [1.0])])
