import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from longmi.errors import ChainFailure, DegenerateMean, PerfectSeparation, TooFewDonors
from longmi.fcs import (
    PMM_DONORS,
    LevelsSpec,
    MethodVector,
    PredictorMatrix,
    UnivariateProblem,
    adaptive_round,
    default_predictor_matrix,
    impute_univariate,
    run_fcs,
    _pmm_pick,
)
from longmi.rng import RngStream
from longmi.table import ColumnSpec, Dataset

NA = np.nan


def flat_dataset(n=400, seed=0, miss=0.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = 1 + 2 * x + rng.normal(size=n)
    b = (rng.random(n) < 0.6).astype(float)
    yv, bv = y.copy(), b.copy()
    yv[rng.random(n) < miss] = NA
    bv[rng.random(n) < miss] = NA
    d = Dataset.build(
        [
            ColumnSpec("id", "continuous", "unit-id"),
            ColumnSpec("x", "continuous", "analysis"),
            ColumnSpec("y", "continuous", "analysis"),
            ColumnSpec("b", "binary", "analysis"),
        ],
        {"id": np.arange(n), "x": x, "y": yv, "b": bv},
        shape_kind="wide",
    )
    return d, y, b


class TestPredictorMatrix:
    def test_default_three_columns(self):
        d = Dataset.build(
            [
                ColumnSpec("id", "continuous", "unit-id"),
                ColumnSpec("a", "continuous", "analysis"),
                ColumnSpec("b", "continuous", "analysis"),
            ],
            {"id": [1.0], "a": [1.0], "b": [1.0]},
            shape_kind="wide",
        )
        pred = default_predictor_matrix(d)
        np.testing.assert_array_equal(
            pred.codes, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        )

    def test_default_single_column(self):
        d = Dataset.build(
            [ColumnSpec("id", "continuous", "unit-id")],
            {"id": [1.0]},
            shape_kind="wide",
        )
        np.testing.assert_array_equal(default_predictor_matrix(d).codes, [[0]])

    def test_invariants(self):
        with pytest.raises(ValueError, match="diagonal"):
            PredictorMatrix(["a", "b"], np.array([[1, 1], [1, 0]]))
        with pytest.raises(ValueError, match="illegal"):
            PredictorMatrix(["a", "b"], np.array([[0, 7], [1, 0]]))
        with pytest.raises(ValueError, match="cluster"):
            PredictorMatrix(
                ["a", "b", "c"],
                np.array([[0, -2, -2], [1, 0, 1], [1, 1, 0]]),
            )

    def test_zeroing_columns(self):
        d, *_ = flat_dataset(10)
        pred = default_predictor_matrix(d)
        pred.set_column("id", 0)
        assert all(pred.get(r, "id") == 0 for r in pred.names)
        assert pred.get("id", "x") == 1  # rows keep their own entries


class TestMethodVector:
    def test_complete_column_must_be_none(self):
        d, *_ = flat_dataset()
        with pytest.raises(ValueError, match="must map to 'none'"):
            MethodVector({"x": "norm"}).validate(d)

    def test_incomplete_column_needs_method(self):
        d, *_ = flat_dataset()
        with pytest.raises(ValueError, match="needs a method"):
            MethodVector({"y": "none"}).validate(d)

    def test_kind_constraints(self):
        d, *_ = flat_dataset()
        with pytest.raises(ValueError, match="binary"):
            MethodVector({"y": "logreg", "b": "logreg"}).validate(d)
        with pytest.raises(ValueError, match="continuous"):
            MethodVector({"y": "norm", "b": "norm"}).validate(d)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            MethodVector({"y": "mystery"})


class TestImputeUnivariate:
    def test_pmm_values_from_observed_support(self):
        d, y, _ = flat_dataset()
        miss = d.column_mask("y")
        prob = UnivariateProblem(
            y=np.where(miss, 0.0, y),
            miss=miss,
            X=np.column_stack([np.ones(d.n_rows), d.column("x")]),
            kind="continuous",
            n_levels=0,
        )
        vals, _ = impute_univariate(RngStream(1), "pmm", prob)
        assert set(vals) <= set(y[~miss])

    def test_norm_constant_target_floored_sigma(self):
        n = 50
        miss = np.zeros(n, dtype=bool)
        miss[:10] = True
        prob = UnivariateProblem(
            y=np.full(n, 3.0),
            miss=miss,
            X=np.ones((n, 1)),
            kind="continuous",
            n_levels=0,
        )
        with pytest.warns(UserWarning, match="flooring"):
            vals, _ = impute_univariate(RngStream(2), "norm", prob)
        np.testing.assert_allclose(vals, 3.0, atol=1e-3)

    def test_logreg_range_and_separation(self):
        n = 200
        x = np.linspace(-3, 3, n)
        y = (x > 0).astype(float)  # perfectly separated
        miss = np.zeros(n, dtype=bool)
        miss[::5] = True
        prob = UnivariateProblem(
            y=y, miss=miss, X=np.column_stack([np.ones(n), x]),
            kind="binary", n_levels=2,
        )
        with pytest.raises(PerfectSeparation):
            impute_univariate(RngStream(3), "logreg", prob)
        vals, _ = impute_univariate(RngStream(3), "logreg", prob, fallback_pmm=True)
        assert set(vals) <= {0.0, 1.0}

    def test_polr_levels(self):
        rng = np.random.default_rng(4)
        n = 500
        x = rng.normal(size=n)
        y = np.clip(np.digitize(x + rng.normal(0, 0.7, n), [-0.5, 0.7]), 0, 2)
        miss = rng.random(n) < 0.3
        prob = UnivariateProblem(
            y=y.astype(float), miss=miss,
            X=np.column_stack([np.ones(n), x]), kind="categorical", n_levels=3,
        )
        vals, _ = impute_univariate(RngStream(5), "polr", prob)
        assert set(vals) <= {0.0, 1.0, 2.0}


    def test_polr_singular_information_falls_back_to_pmm(self):
        # z is nonzero only on two rows whose levels are certain, so its
        # slope has no information
        rng = np.random.default_rng(0)
        n = 400
        x = rng.normal(size=n)
        y = ((x + rng.logistic(size=n))[:, None] > [-1.0, 1.0]).sum(axis=1)
        miss = np.r_[rng.random(n) < 0.2, False, False]
        prob = UnivariateProblem(
            y=np.r_[y, 0, 2].astype(float), miss=miss,
            X=np.column_stack([np.ones(n + 2), np.r_[x, -100.0, 100.0],
                               np.r_[np.zeros(n), 1.0, 1.0]]),
            kind="categorical", n_levels=3,
        )
        with pytest.raises(PerfectSeparation):
            impute_univariate(RngStream(6), "polr", prob)
        vals, _ = impute_univariate(RngStream(6), "polr", prob, fallback_pmm=True)
        assert set(vals) <= {0.0, 1.0, 2.0}


class TestRunFcs:
    def test_no_missing_yields_identical_copies(self):
        d, *_ = flat_dataset(miss=0.0)
        pred = default_predictor_matrix(d)
        pred.set_column("id", 0)
        stack, stats = run_fcs(
            RngStream(6), d, MethodVector({}), pred, maxit=3, m=4
        )
        assert stack.m == 4
        for imp in stack.imputations:
            assert imp.equals(d.completed(d.values))
        assert stats == []

    def test_default_maxit_is_ten(self):
        import inspect

        assert inspect.signature(run_fcs).parameters["maxit"].default == 10

    def test_chain_stats_cover_every_iteration(self):
        d, *_ = flat_dataset()
        pred = default_predictor_matrix(d)
        pred.set_column("id", 0)
        _, stats = run_fcs(
            RngStream(7), d, MethodVector({"y": "norm", "b": "logreg"}),
            pred, maxit=4, m=3, fallback_pmm=True,
        )
        seen = {(s.chain, s.iteration, s.column) for s in stats}
        expect = {
            (c, it, col)
            for c in range(3)
            for it in range(1, 5)
            for col in ("y", "b")
        }
        assert seen == expect

    def test_chain_failure_carries_context(self):
        n = 60
        x = np.linspace(-3, 3, n)
        b = (x > 0).astype(float)
        b[:4] = NA
        d = Dataset.build(
            [
                ColumnSpec("id", "continuous", "unit-id"),
                ColumnSpec("x", "continuous", "analysis"),
                ColumnSpec("b", "binary", "analysis"),
            ],
            {"id": np.arange(n), "x": x, "b": b},
            shape_kind="wide",
        )
        pred = default_predictor_matrix(d)
        pred.set_column("id", 0)
        with pytest.raises(ChainFailure) as err:
            run_fcs(RngStream(8), d, MethodVector({"b": "logreg"}), pred,
                    maxit=2, m=2)
        assert err.value.column == "b"
        assert err.value.chain == 0

    def test_chain_results_independent_of_m(self):
        # chain c is a pure function of substream c: the first two chains
        # of an m=3 run match an m=2 run exactly
        d, *_ = flat_dataset()
        pred = default_predictor_matrix(d)
        pred.set_column("id", 0)
        mv = MethodVector({"y": "norm", "b": "pmm"})
        full, _ = run_fcs(RngStream(9), d, mv, pred, maxit=3, m=3)
        part, _ = run_fcs(RngStream(9), d, mv, pred, maxit=3, m=2)
        for a, b in zip(part.imputations, full.imputations):
            assert a.equals(b)

    def test_workers_do_not_change_results(self):
        d, *_ = flat_dataset(n=150)
        pred = default_predictor_matrix(d)
        pred.set_column("id", 0)
        mv = MethodVector({"y": "norm", "b": "pmm"})
        serial, s_stats = run_fcs(RngStream(10), d, mv, pred, maxit=2, m=3)
        para, p_stats = run_fcs(
            RngStream(10), d, mv, pred, maxit=2, m=3, workers=2
        )
        for a, b in zip(serial.imputations, para.imputations):
            assert a.equals(b)
        assert s_stats == p_stats

    def test_code_validation(self):
        d, *_ = flat_dataset()
        pred = default_predictor_matrix(d)
        pred.set("y", "x", 2)  # random slope without a multilevel method
        with pytest.raises(ValueError, match="codes 2/3"):
            run_fcs(RngStream(11), d, MethodVector({"y": "norm", "b": "pmm"}),
                    pred, maxit=1, m=1)


def pmm_reference(rng, pred_obs, y_obs, pred_mis, k):
    """Rank every donor by (|distance|, donor index), keep the first k and
    make the same draw as ``_pmm_pick``."""
    k = min(k, len(y_obs))
    index = np.arange(len(pred_obs))
    near = np.array(
        [np.lexsort((index, np.abs(pred_obs - x)))[:k] for x in pred_mis]
    ).reshape(len(pred_mis), k)
    return y_obs[near[np.arange(len(pred_mis)), rng.integers(0, k, size=len(pred_mis))]]


class TestPmmPick:
    # runs of tied predictions longer than 2k on both sides of most
    # recipients; recipients on, between (equidistant) and beyond them
    TIED = np.repeat([-1.0, 0.0, 0.5, 2.0], [9, 12, 3, 11])[
        np.random.default_rng(4).permutation(35)
    ]
    TIED_MIS = np.array([-3.0, -1.0, -0.5, 0.0, 0.25, 0.4, 1.25, 2.0, 9.0] * 30)

    @pytest.mark.parametrize("pred_obs, pred_mis, k", [
        (TIED, TIED_MIS, 5),
        (TIED, TIED_MIS, 1),
        (np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), TIED_MIS, 5),  # n_obs < 2k
        (np.array([3.0, 1.0, 1.0, 2.0, 0.0]), TIED_MIS, 5),  # n_obs == k
        (np.random.default_rng(1).normal(size=300),
         np.random.default_rng(2).normal(scale=2.0, size=400), 5),
    ])
    def test_matches_brute_force_ranking(self, pred_obs, pred_mis, k):
        y_obs = 100.0 + np.arange(len(pred_obs))
        got = _pmm_pick(RngStream(7), pred_obs, y_obs, pred_mis, k)
        want = pmm_reference(RngStream(7), pred_obs, y_obs, pred_mis, k)
        np.testing.assert_array_equal(got, want)

    def test_shrinks_k_to_the_donor_count(self):
        pred_obs, y_obs = np.array([2.0, 0.0, 2.0]), np.array([10.0, 11.0, 12.0])
        with pytest.warns(UserWarning, match="only 3 donors available; shrinking k"):
            got = _pmm_pick(RngStream(8), pred_obs, y_obs, self.TIED_MIS, 5)
        want = pmm_reference(RngStream(8), pred_obs, y_obs, self.TIED_MIS, 3)
        np.testing.assert_array_equal(got, want)

    def test_no_donors(self):
        with pytest.raises(TooFewDonors):
            _pmm_pick(RngStream(9), np.empty(0), np.empty(0), np.zeros(3), 5)

    def test_memory_is_not_quadratic(self):
        g = np.random.default_rng(5)
        pred_obs, y_obs = g.normal(size=(2, 4000))
        pred_mis = g.normal(size=1000)
        tracemalloc.start()
        try:
            _pmm_pick(RngStream(10), pred_obs, y_obs, pred_mis, PMM_DONORS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 1000 x 4000 distance matrix alone is 32 MB
        assert peak < 4 * 2**20


class TestAdaptiveRound:
    def test_symmetric_mean(self):
        out = adaptive_round(np.array([0.49, 0.51]), np.full(10, 0.5))
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_threshold_against_quantile_oracle(self):
        w = 0.7
        c = w - ndtri(w) * np.sqrt(w * (1 - w))
        assert c == pytest.approx(0.4597, abs=5e-4)
        out = adaptive_round(np.array([c - 1e-6, c + 1e-6]), np.full(100, w))
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_large_values_round_to_one(self):
        out = adaptive_round(np.array([5.0, 80.0]), np.full(10, 0.3))
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_degenerate_mean(self):
        with pytest.raises(DegenerateMean):
            adaptive_round(np.array([0.5]), np.ones(10))


def test_design_maps_slope_columns_into_fixed_block():
    # mixed codes around the random-slope column: the z columns must
    # point at the exact X columns holding the same values
    rng = np.random.default_rng(40)
    n, C = 120, 10
    clus = np.repeat(np.arange(C), n // C).astype(float)
    d = Dataset.build(
        [
            ColumnSpec("id", "continuous", "unit-id"),
            ColumnSpec("g", "continuous", "cluster-id"),
            ColumnSpec("a", "continuous", "analysis"),
            ColumnSpec("cat", "categorical", "analysis", ("x", "y", "z")),
            ColumnSpec("t", "continuous", "analysis"),
            ColumnSpec("y", "continuous", "analysis"),
        ],
        {
            "id": np.arange(n),
            "g": clus,
            "a": rng.normal(size=n),
            "cat": rng.integers(0, 3, n).astype(float),
            "t": np.tile(np.arange(n // C), C).astype(float),
            "y": np.where(rng.random(n) < 0.3, np.nan, rng.normal(size=n)),
        },
        shape_kind="wide",
    )
    from longmi.fcs import _Chain, MethodVector, default_predictor_matrix

    pred = default_predictor_matrix(d)
    pred.set_column("id", 0)
    pred.set_column("g", -2)
    pred.set("y", "a", 3)   # fixed + cluster mean (two X blocks)
    pred.set("y", "t", 2)   # fixed + random slope, after the mean block
    mv = MethodVector({"y": "2l.pan"})
    chain = _Chain(RngStream(41), d, mv, pred, None, False)
    X, Z, cluster_col, z_to_x = chain._design("y")
    assert cluster_col == "g"
    assert Z.shape[1] == 2  # intercept + t
    for zj, xj in enumerate(z_to_x):
        np.testing.assert_array_equal(Z[:, zj], X[:, xj])


def test_collapse_rejects_nonconstant_cluster_target():
    rng = np.random.default_rng(50)
    C, per = 20, 5
    clus = np.repeat(np.arange(C), per).astype(float)
    w = rng.normal(size=C * per)  # varies within cluster: invalid 2lonly target
    w[rng.random(C * per) < 0.2] = NA
    d = Dataset.build(
        [
            ColumnSpec("id", "continuous", "unit-id"),
            ColumnSpec("g", "continuous", "cluster-id"),
            ColumnSpec("x", "continuous", "analysis"),
            ColumnSpec("w", "continuous", "analysis"),
        ],
        {"id": np.arange(C * per), "g": clus, "x": rng.normal(size=C * per), "w": w},
        shape_kind="wide",
    )
    pred = default_predictor_matrix(d)
    pred.set_column("id", 0)
    pred.set_column("g", -2)
    with pytest.raises(ChainFailure, match="not constant within"):
        run_fcs(RngStream(51), d, MethodVector({"w": "2lonly.norm"}), pred,
                maxit=1, m=1)
