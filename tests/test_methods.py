import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmi.errors import BadConfig, UnsupportedMethod
from longmi.fcs import default_predictor_matrix, mtw_predictor_matrix
from longmi.methods import METHOD_NAMES, build_and_run, detect_map
from longmi.rng import RngStream
from longmi.simulate import CATS_MAP, SimConfig, simulate
from longmi.stack import ImputedStack
from longmi.table import ColumnSpec, Dataset, reshape_long_to_wide


@pytest.fixture(scope="module")
def small_sim():
    cfg = SimConfig(n_schools=8, n_students=160, seed=3)
    return simulate(RngStream(3), cfg)


class TestDetectMap:
    def test_cats_roles(self, small_sim):
        dm = detect_map(small_sim.observed)
        assert dm.unit == "id" and dm.cluster == "school" and dm.time == "time"
        assert set(dm.time_varying) == {"prev_dep", "numeracy_score", "prev_sdq"}
        assert set(dm.time_fixed) == {"age", "sex", "ses", "numeracy_scorew1"}
        assert dm.reshape.times == (3, 5, 7)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_unit_loop(self, data):
        n = data.draw(st.integers(0, 20))
        cell = st.sampled_from([np.nan, -0.0, 0.0, 1.0, 2.5, np.inf, -np.inf])
        rows = [
            [data.draw(st.sampled_from([3.0, 1.0, 2.0])), float(t)]
            + [data.draw(cell) for _ in range(3)]
            for t in range(n)
        ]
        cols = [ColumnSpec("id", "continuous", "unit-id"),
                ColumnSpec("time", "continuous", "time")]
        cols += [ColumnSpec(f"x{j}", "continuous", "analysis") for j in range(3)]
        d = Dataset(cols, np.array(rows).reshape(n, 5), shape_kind="long")
        # the per-unit loop detect_map used to run
        codes = np.unique(d.column("id"), return_inverse=True)[1]
        expected = []
        for name in ("x0", "x1", "x2"):
            x = d.column(name)
            per_unit = [x[codes == g][~np.isnan(x[codes == g])] for g in np.unique(codes)]
            if any(len(np.unique(v)) > 1 for v in per_unit):
                expected.append(name)
        assert detect_map(d).time_varying == expected

    def test_override(self, small_sim):
        dm = detect_map(small_sim.observed, time_varying=["prev_dep"])
        assert dm.time_varying == ["prev_dep"]
        assert "numeracy_score" in dm.time_fixed


# what each catalog row must configure: a JM row's cluster column and
# covariance mode; an FCS row's univariate methods and whether it sets levels
EXPECTED_SPEC = {
    "jm-1l-wide": ("jm", None, "common"),
    "fcs-1l-wide": ("fcs", {"norm", "logreg", "polr"}, False),
    "fcs-1l-wide-mtw": ("fcs", {"norm", "logreg", "polr"}, False),
    "jm-2l": ("jm", "id", "common"),
    "fcs-2l": ("fcs", {"2l.pan", "2l.latent", "2lonly.norm", "2lonly.pmm"}, False),
    "jm-1l-di-wide": ("jm", None, "common"),
    "fcs-1l-di-wide": ("fcs", {"norm", "logreg", "polr"}, False),
    "jm-2l-wide": ("jm", "school", "cluster-specific"),
    "fcs-2l-wide": ("fcs", {"2l.pan", "2l.latent", "2l.pmm"}, False),
    "jm-2l-di": ("jm", "id", "cluster-specific"),
    "fcs-2l-di": ("fcs", {"2l.pan", "2l.latent", "2lonly.norm", "2lonly.pmm"}, False),
    "fcs-3l": ("fcs", {"ml.lmer.continuous", "ml.lmer.pmm"}, True),
}


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_every_method_runs_and_preserves(small_sim, method):
    obs = small_sim.observed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = build_and_run(
            RngStream(42), method, obs, m=2, maxit=3, nburn=30, nbetween=10
        )
    assert res.stack.m == 2
    spec = res.spec_json
    family, *expect = EXPECTED_SPEC[method]
    assert spec["family"] == family
    if family == "jm":
        assert [spec["clus"], spec["cov_mode"]] == expect
    else:
        assert [set(spec["methods"].values()), spec["levels"] is not None] == expect
    for imp in res.stack.imputations:
        assert not imp.mask.any()
        assert imp.col_names == obs.col_names
        for col in ("ses", "numeracy_scorew1", "prev_dep", "numeracy_score"):
            o = ~obs.column_mask(col)
            np.testing.assert_array_equal(imp.column(col)[o], obs.column(col)[o])
        # discrete columns stay on their level codes
        assert set(np.unique(imp.column("prev_dep"))) <= {0.0, 1.0}
        assert set(np.unique(imp.column("ses"))) <= {0.0, 1.0, 2.0, 3.0, 4.0}


def test_method_is_deterministic(small_sim):
    obs = small_sim.observed
    runs = []
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = build_and_run(
                RngStream(7), "fcs-1l-wide", obs, m=2, maxit=2
            )
        runs.append(res.stack.to_stacked())
    assert runs[0].equals(runs[1])


def test_unsupported_methods(small_sim):
    with pytest.raises(UnsupportedMethod, match="three-level joint model"):
        build_and_run(RngStream(0), "jm-3l", small_sim.observed)
    with pytest.raises(UnsupportedMethod, match="unknown method"):
        build_and_run(RngStream(0), "jm-9l", small_sim.observed)


@pytest.mark.parametrize("method", ["jm-2l", "jm-2l-di", "fcs-2l", "fcs-2l-di", "fcs-3l"])
def test_fixed_column_varying_within_unit_is_bad_config(small_sim, method):
    obs = small_sim.observed
    j = obs.col_index("numeracy_scorew1")
    values = obs.values.copy()
    row = int(np.flatnonzero(~obs.mask[:, j])[0])
    values[row, j] += 1.0
    d = Dataset(obs.columns, values, obs.mask, shape_kind="long")
    varying = detect_map(obs).time_varying  # keeps numeracy_scorew1 time-fixed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        with pytest.raises(BadConfig, match="'numeracy_scorew1' takes two values"):
            build_and_run(RngStream(1), method, d, m=1, maxit=1, nburn=1,
                          time_varying=varying)


def test_fcs_2l_di_warns(small_sim):
    with pytest.warns(UserWarning, match="fcs-2l-di"):
        build_and_run(
            RngStream(1), "fcs-2l-di", small_sim.observed, m=2, maxit=2
        )


class TestMtwMatrix:
    def test_reproduces_handbuilt_window_one(self, small_sim):
        wide = reshape_long_to_wide(small_sim.observed, CATS_MAP)
        got = mtw_predictor_matrix(
            wide, CATS_MAP, window=1, baseline_waves={"numeracy_scorew1": 1}
        )
        # hand-built counterpart of the window-1 layout: start from the
        # default matrix and zero every pair of waves more than one step
        # apart, treating the baseline score as wave 1
        expect = default_predictor_matrix(wide)
        w5 = [n for n in wide.col_names if n.endswith(".5")]
        w7 = [n for n in wide.col_names if n.endswith(".7")]
        w3 = [n for n in wide.col_names if n.endswith(".3")]
        expect.set("numeracy_scorew1", w5 + w7, 0)
        expect.set(w3, w7, 0)
        expect.set(w5, "numeracy_scorew1", 0)
        expect.set(w7, w3, 0)
        expect.set(w7, "numeracy_scorew1", 0)
        assert got == expect

    def test_wide_window_equals_default(self, small_sim):
        wide = reshape_long_to_wide(small_sim.observed, CATS_MAP)
        got = mtw_predictor_matrix(
            wide, CATS_MAP, window=10, baseline_waves={"numeracy_scorew1": 1}
        )
        assert got == default_predictor_matrix(wide)

    def test_window_two_zeroes_only_extreme_pairs(self, small_sim):
        wide = reshape_long_to_wide(small_sim.observed, CATS_MAP)
        got = mtw_predictor_matrix(
            wide, CATS_MAP, window=2, baseline_waves={"numeracy_scorew1": 1}
        )
        # waves (1,3,5,7): only index distance 3 pairs (wave1 vs wave7) go
        expect = default_predictor_matrix(wide)
        w7 = [n for n in wide.col_names if n.endswith(".7")]
        expect.set("numeracy_scorew1", w7, 0)
        expect.set(w7, "numeracy_scorew1", 0)
        assert got == expect


def test_stacked_round_trip(small_sim):
    obs = small_sim.observed
    res = build_and_run(RngStream(9), "fcs-1l-wide", obs, m=3, maxit=2)
    stacked = res.stack.to_stacked()
    assert list(np.unique(stacked.column("Imputation"))) == [0.0, 1.0, 2.0, 3.0]
    back = ImputedStack.from_stacked(stacked)
    assert back.m == 3
    assert back.original.equals(obs.with_columns(obs.columns, obs.values, obs.mask))
    for a, b in zip(back.imputations, res.stack.imputations):
        assert a.equals(b)


def test_fcs_spec_json_shape(small_sim):
    res = build_and_run(RngStream(10), "fcs-2l", small_sim.observed, m=2, maxit=2)
    spec = res.spec_json
    assert spec["family"] == "fcs"
    assert spec["methods"]["numeracy_score"] == "2l.pan"
    assert spec["methods"]["prev_dep"] == "2l.latent"
    assert spec["methods"]["ses"] == "2lonly.pmm"
    assert spec["methods"]["numeracy_scorew1"] == "2lonly.norm"
    assert spec["predictor_matrix"]["numeracy_score"]["id"] == -2
    assert spec["predictor_matrix"]["numeracy_score"]["time"] == 2
    assert spec["predictor_matrix"]["numeracy_score"]["prev_sdq"] == 3
    assert spec["predictor_matrix"]["ses"].get("time", 0) == 0


def test_from_stacked_rejects_missing_original(small_sim):
    obs = small_sim.observed
    res = build_and_run(RngStream(11), "fcs-1l-wide", obs, m=2, maxit=2)
    stacked = res.stack.to_stacked()
    only_imps = stacked.take(stacked.column("Imputation") > 0)
    with pytest.raises(BadConfig, match="contiguous Imputation tags"):
        ImputedStack.from_stacked(only_imps)
