import warnings
import tracemalloc

import numpy as np
import pytest

from longmi.errors import ChainFailure, PerfectSeparation, TooFewDonors
from longmi import fcs
from longmi.fcs import (
    NESTED_METHODS,
    ONLY_METHODS,
    PMM_DONORS,
    SLOPE_METHODS,
    LevelsSpec,
    MethodVector,
    PredictorMatrix,
    UnivariateProblem,
    default_predictor_matrix,
    impute_univariate,
    run_fcs,
    _Chain,
    _LmmGibbs,
    _plan_run,
    _pmm_pick,
)
from longmi.methods import build_and_run
from longmi.rng import RngStream, chol
from longmi.simulate import SimConfig, simulate
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


@pytest.fixture(scope="module")
def small_cohort():
    return simulate(RngStream(3), SimConfig(n_schools=6, n_students=90, seed=3))


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


def row_problem(y, miss, X):
    """The visit problem of a target with full column ``y`` and design ``X``."""
    return UnivariateProblem(y[~miss], X[~miss], X[miss])


class TestImputeUnivariate:
    def test_pmm_values_from_observed_support(self):
        d, y, _ = flat_dataset()
        miss = d.column_mask("y")
        prob = row_problem(
            y=np.where(miss, 0.0, y),
            miss=miss,
            X=np.column_stack([np.ones(d.n_rows), d.column("x")]),
        )
        vals, _ = impute_univariate(RngStream(1), "pmm", prob)
        assert set(vals) <= set(y[~miss])

    def test_norm_constant_target_floored_sigma(self):
        n = 50
        miss = np.zeros(n, dtype=bool)
        miss[:10] = True
        prob = row_problem(
            y=np.full(n, 3.0),
            miss=miss,
            X=np.ones((n, 1)),
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
        prob = row_problem(
            y=y, miss=miss, X=np.column_stack([np.ones(n), x]),
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
        prob = row_problem(
            y=y.astype(float), miss=miss,
            X=np.column_stack([np.ones(n), x]),
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
        prob = row_problem(
            y=np.r_[y, 0, 2].astype(float), miss=miss,
            X=np.column_stack([np.ones(n + 2), np.r_[x, -100.0, 100.0],
                               np.r_[np.zeros(n), 1.0, 1.0]]),
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

    def test_workers_do_not_change_results(self, small_cohort):
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
        # the visit plans travel to worker processes with each chain
        for method in ("fcs-3l", "fcs-2l"):
            serial, para = (
                build_and_run(RngStream(10), method, small_cohort.observed, m=2,
                              maxit=2, fallback_pmm=True, workers=w)
                for w in (1, 2)
            )
            for a, b in zip(serial.stack.imputations, para.stack.imputations):
                assert a.equals(b)
            assert serial.chain_stats == para.chain_stats

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
    pred = default_predictor_matrix(d)
    pred.set_column("id", 0)
    pred.set_column("g", -2)
    pred.set("y", "a", 3)   # fixed + cluster mean (two X blocks)
    pred.set("y", "t", 2)   # fixed + random slope, after the mean block
    mv = MethodVector({"y": "2l.pan"})
    layout, plans = _plan_run(d, mv, pred, None)
    chain = _Chain(RngStream(41), d, layout, plans, False)
    plan = plans["y"]
    Z = chain.design[:, plan.x_cols][:, list(plan.z_to_x)]
    assert plan.sizes == (C,)  # clustered on g
    np.testing.assert_array_equal(plan.codes_obs[0], np.repeat(np.arange(C), n // C)[plan.obs])
    np.testing.assert_array_equal(Z, np.column_stack([np.ones(n), d.column("t")]))


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


# ---------------------------------------------------------------------------
# visit plans and the per-chain design against the per-visit rebuild they
# replace
# ---------------------------------------------------------------------------


def rebuilt_factor(values):
    uniq, first, codes = np.unique(values, return_index=True, return_inverse=True)
    return codes.astype(int), len(uniq), first


def rebuilt_design(d, completed, pred, target):
    """X, Z and z_to_x built from every column's completed values, as
    each visit used to build them."""
    def expand(col):
        sp = d.spec(col)
        x = completed[:, d.col_index(col)]
        if sp.kind == "categorical":
            return np.column_stack(
                [(x == k).astype(float) for k in range(1, sp.n_levels)]
            )
        return x[:, None].astype(float)

    row = pred.row(target)
    cluster_col = next((c for c, v in row.items() if v == -2), None)
    fixed, slopes, z_to_x = [np.ones((d.n_rows, 1))], [np.ones((d.n_rows, 1))], [0]
    x_cursor = 1
    for col, code in row.items():
        if col == target or code in (0, -2):
            continue
        block = expand(col)
        fixed.append(block)
        if code == 2:
            slopes.append(block)
            z_to_x.extend(range(x_cursor, x_cursor + block.shape[1]))
        x_cursor += block.shape[1]
        if code == 3:
            codes, n_g, _ = rebuilt_factor(d.column(cluster_col))
            counts = np.bincount(codes, minlength=n_g).astype(float)
            means = np.column_stack(
                [np.bincount(codes, weights=b, minlength=n_g) / counts for b in block.T]
            )
            fixed.append(means[codes])
            x_cursor += block.shape[1]
    return (np.concatenate(fixed, axis=1), np.concatenate(slopes, axis=1),
            cluster_col, z_to_x)


def rebuilt_problem(d, completed, methods, pred, levels, col):
    """The method and the problem fields of one visit, rebuilt from
    scratch (cluster-level targets averaged over their level unit), and
    a function writing the imputed values into a completed array."""
    levels = levels or LevelsSpec()
    method = methods[col]
    j = d.col_index(col)
    miss = data_miss = d.mask[:, j]

    def write(out, vals):
        out[data_miss, j] = vals

    y = completed[:, j].copy()
    X, Z, cluster_col, z_to_x = rebuilt_design(d, completed, pred, col)
    groups = levels.clusters.get(col, ()) if method in NESTED_METHODS else ()
    level_col = cluster_col if method in ONLY_METHODS else (
        levels.level_of.get(col, "") if method in NESTED_METHODS else ""
    )
    if level_col:
        codes, n_g, first = rebuilt_factor(d.column(level_col))
        counts = np.bincount(codes, minlength=n_g).astype(float)
        X = np.column_stack(
            [np.bincount(codes, weights=x, minlength=n_g) / counts for x in X.T]
        )
        y, miss = y[first], miss[first]
        nested = [rebuilt_factor(d.column(g)[first])[:2] for g in groups]

        def write(out, vals):
            filled = y.copy()
            filled[miss] = vals
            out[data_miss, j] = filled[codes][data_miss]

        if method in ONLY_METHODS:
            method = "norm" if method == "2lonly.norm" else "pmm"
    else:
        nested = [rebuilt_factor(d.column(g))[:2] for g in groups]
    obs = ~miss
    if method in SLOPE_METHODS:
        nested = [rebuilt_factor(d.column(cluster_col))[:2]]
        np.testing.assert_array_equal(X[:, z_to_x], Z)
    fields = dict(
        y_obs=y[obs], X_obs=X[obs], X_mis=X[miss],
        codes_obs=tuple(c[obs] for c, _ in nested),
        codes_mis=tuple(c[miss] for c, _ in nested),
        sizes=tuple(s for _, s in nested),
    )
    if method in SLOPE_METHODS + NESTED_METHODS:
        fields.update(z_to_x=tuple(z_to_x) if method in SLOPE_METHODS else (0,))
    return method, fields, write


@pytest.mark.parametrize(
    "method", ["fcs-1l-wide", "fcs-1l-di-wide", "fcs-2l", "fcs-2l-wide", "fcs-3l"]
)
def test_visits_match_a_rebuilt_design(method, small_cohort, monkeypatch):
    # 1l (dummies of a categorical column), 2l (codes 2 and 3, 2lonly
    # targets) and ml (nested codes, unit-level targets) families: every
    # problem equals the rebuilt one bit for bit, each visit writes its
    # values where the rebuild would, and after every visit the chain's
    # design matches a rebuild for every target
    run, visited = {}, []
    plan_run, visit, impute = fcs._plan_run, fcs._Chain.visit, fcs.impute_univariate

    def spy_plan_run(d, methods, pred, levels):
        run.update(d=d, methods=methods, pred=pred, levels=levels)
        return plan_run(d, methods, pred, levels)

    def spy_visit(chain, col):
        run.update(chain=chain, col=col)
        expected = chain.completed.copy()
        visit(chain, col)
        run["write"](expected, run["vals"])
        np.testing.assert_array_equal(chain.completed, expected)
        for target, plan in chain.plans.items():
            X, Z, _, z_to_x = rebuilt_design(run["d"], chain.completed, run["pred"],
                                             target)
            np.testing.assert_array_equal(chain.design[:, plan.x_cols], X)
            if plan.method in SLOPE_METHODS:
                assert plan.z_to_x == tuple(z_to_x)

    def spy_impute(rng, name, prob, state=None, fallback_pmm=False):
        want_method, want, run["write"] = rebuilt_problem(
            run["d"], run["chain"].completed, run["methods"], run["pred"],
            run["levels"], run["col"],
        )
        assert name == want_method
        for field_name, value in want.items():
            got = getattr(prob, field_name)
            if isinstance(value, tuple):
                assert len(got) == len(value)
                for a, b in zip(got, value):
                    np.testing.assert_array_equal(a, b)
            else:
                np.testing.assert_array_equal(got, value)
        visited.append(run["col"])
        run["vals"], state = impute(rng, name, prob, state, fallback_pmm)
        return run["vals"], state

    monkeypatch.setattr(fcs, "_plan_run", spy_plan_run)
    monkeypatch.setattr(fcs._Chain, "visit", spy_visit)
    monkeypatch.setattr(fcs, "impute_univariate", spy_impute)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        build_and_run(RngStream(12), method, small_cohort.observed, m=1, maxit=2,
                      fallback_pmm=True)
    targets = run["methods"].targets(run["d"])
    assert visited == targets * 2


class ReferenceNestedGibbs:
    """The nested-intercept sweep as first written: X @ beta and every
    level's offset recomputed per draw, beta solved through the Cholesky
    factor."""

    def __init__(self, p, sizes, var_y):
        self.beta = np.zeros(p)
        self.u = [np.zeros(s) for s in sizes]
        self.psi = [max(var_y, 1e-6) / len(sizes) for _ in sizes]
        self.sigma2 = max(var_y, 1e-6)

    def _offset(self, nested, n, skip=None):
        out = np.zeros(n)
        for k, codes in enumerate(nested):
            if k != skip:
                out += self.u[k][codes]
        return out

    def advance(self, rng, sweeps, y, X, nested, sizes):
        n = len(y)
        Cx = chol(X.T @ X + 1e-10 * np.eye(X.shape[1]))
        counts = [np.bincount(c, minlength=s) for c, s in zip(nested, sizes)]
        eta_sum = np.zeros(n)
        for _ in range(sweeps):
            for k, codes in enumerate(nested):
                r = y - X @ self.beta - self._offset(nested, n, skip=k)
                sums = np.bincount(codes, weights=r, minlength=sizes[k])
                prec = counts[k] / self.sigma2 + 1.0 / self.psi[k]
                mean = (sums / self.sigma2) / prec
                self.u[k] = mean + rng.normal(size=sizes[k]) / np.sqrt(prec)
                shift = self.u[k].mean() + rng.normal() * np.sqrt(
                    self.psi[k] / sizes[k]
                )
                self.u[k] = self.u[k] - shift
                self.beta[0] += shift
                self.psi[k] = float(
                    (1.0 + self.u[k] @ self.u[k]) / rng.chisquare(1 + sizes[k])
                )
            r2 = y - self._offset(nested, n)
            b_hat = np.linalg.solve(Cx.T, np.linalg.solve(Cx, X.T @ r2))
            z = rng.normal(size=len(b_hat))
            self.beta = b_hat + np.sqrt(self.sigma2) * np.linalg.solve(Cx.T, z)
            resid = r2 - X @ self.beta
            self.sigma2 = float(resid @ resid) / rng.chisquare(max(n, 1))
            eta_sum += X @ self.beta + self._offset(nested, n)
        self.eta_hat = eta_sum / sweeps

    def eta(self, X, nested):
        return X @ self.beta + self._offset(nested, X.shape[0])


def nested_problem(seed, n_school=12, p=6):
    """Unbalanced students (1-3 rows) within unbalanced schools; with equal
    group sizes a wrong intercept shift cancels out of the centred draws."""
    g = np.random.default_rng(seed)
    per_school = g.integers(4, 16, n_school)
    school = np.repeat(np.arange(n_school), per_school)
    rows = g.integers(1, 4, per_school.sum())
    school = np.repeat(school, rows)
    student = np.repeat(np.arange(per_school.sum()), rows)
    n = len(school)
    X = np.column_stack([np.ones(n), g.normal(size=(n, p - 2)), g.integers(0, 2, n)])
    y = (X @ g.normal(size=p) + g.normal(0, 0.5, n_school)[school]
         + g.normal(0, 0.8, per_school.sum())[student] + g.normal(size=n))
    return y, X, (student, school), (int(per_school.sum()), n_school)


@pytest.mark.parametrize("levels", [2, 1])
def test_nested_sweep_matches_reference(levels):
    y, X, nested, sizes = nested_problem(13)
    nested, sizes = nested[:levels], sizes[:levels]
    new = _LmmGibbs(X.shape[1], sizes, (0,), float(np.var(y)))
    ref = ReferenceNestedGibbs(X.shape[1], sizes, float(np.var(y)))
    rng_new, rng_ref = RngStream(14), RngStream(14)
    for sweeps in (15, 5, 5):  # a first visit and two later ones
        new.advance(rng_new, sweeps, y, X, nested)
        ref.advance(rng_ref, sweeps, y, X, nested, sizes)
        np.testing.assert_equal(rng_new.gen.bit_generator.state,
                                rng_ref.gen.bit_generator.state)
        for a, b in [(new.beta, ref.beta), (new.eta_hat, ref.eta_hat),
                     (new.sigma2, ref.sigma2), (new.psi, ref.psi), *zip(new.u, ref.u)]:
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)
        np.testing.assert_allclose(new.eta(X, nested), ref.eta(X, nested),
                                   rtol=0, atol=1e-10)


def test_slope_step_follows_dense_conditional():
    # with beta, sigma2 and psi held fixed, u | rest for q = 2 random
    # coefficients is N(inv(lam) b, inv(lam)) over all units at once, with
    # lam = Z'Z / sigma2 + I (x) inv(psi) and b = Z'(y - X beta) / sigma2
    # for the dense n x Gq design Z; its blocks are per unit
    g = np.random.default_rng(15)
    n, G, q, reps = 60, 5, 2, 20_000
    group = g.integers(0, G, n)  # unbalanced units
    X = np.column_stack([np.ones(n), g.normal(size=n), g.normal(size=n)])
    z_to_x = (0, 2)
    Z = X[:, z_to_x]
    y = g.normal(size=n)
    state = _LmmGibbs(3, (G,), z_to_x, 1.0)
    state.beta = np.array([0.3, 1.0, -0.5])
    state.sigma2 = 0.7
    state.psi[0] = np.array([[0.5, 0.2], [0.2, 0.3]])
    state.psi_prec[0] = np.linalg.inv(state.psi[0])
    r = y - X @ state.beta
    ZtZ = np.stack([Z[group == h].T @ Z[group == h] for h in range(G)])
    rng = RngStream(16)
    draws = np.stack([state._draw_u(rng, 0, r, group, Z, ZtZ) for _ in range(reps)])

    dense = np.zeros((n, G * q))
    for i, h in enumerate(group):
        dense[i, h * q:(h + 1) * q] = Z[i]
    lam = dense.T @ dense / state.sigma2 + np.kron(np.eye(G), state.psi_prec[0])
    cov = np.linalg.inv(lam)
    mean = cov @ dense.T @ r / state.sigma2
    flat = draws.reshape(reps, G * q)
    sd = np.sqrt(np.diag(cov))
    assert (np.abs(flat.mean(axis=0) - mean) < 5 * sd / np.sqrt(reps)).all()
    got = np.cov(flat, rowvar=False)
    assert (np.abs(got - cov) <= 0.05 * np.outer(sd, sd)).all()
