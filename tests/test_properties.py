"""Property-based checks on the numeric primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmi.formula import grouping_codes, parse_formula
from longmi.jm import autocorr, decode_latent, encode_latent
from longmi.lmm import LmmFit
from longmi.pooling import pool
from longmi.rng import MvnParams, RngStream, conditional_mvn
from longmi.table import ColumnSpec, Dataset


def fit_of(q, s):
    return LmmFit(
        names=["b"], beta=np.array([q]), se=np.array([s]),
        var_components={"residual": 1.0}, loglik=0.0, criterion="REML",
        grouping=(), converged=True, boundary=(), n_obs=1, n_iter=0,
    )


finite = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-3, 1e3, allow_nan=False)


@given(
    qs=st.lists(finite, min_size=2, max_size=12),
    ses=st.lists(positive, min_size=2, max_size=12),
    a=st.floats(-100, 100),
    b=st.floats(-100, 100).filter(lambda v: abs(v) > 1e-6),
)
@settings(max_examples=200, deadline=None)
def test_pooling_is_affine_equivariant(qs, ses, a, b):
    m = min(len(qs), len(ses))
    qs, ses = qs[:m], ses[:m]
    base = pool([fit_of(q, s) for q, s in zip(qs, ses)])["b"]
    moved = pool([fit_of(a + b * q, abs(b) * s) for q, s in zip(qs, ses)])["b"]
    assert moved.estimate == pytest.approx(a + b * base.estimate, rel=1e-9, abs=1e-7)
    assert moved.se == pytest.approx(abs(b) * base.se, rel=1e-9, abs=1e-9)
    assert moved.total >= moved.within - 1e-12
    assert 0.0 <= moved.fmi <= 1.0


@given(
    qs=st.lists(finite, min_size=3, max_size=10),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_pooling_permutation_invariant(qs, seed):
    fits = [fit_of(q, 1.0) for q in qs]
    perm = np.random.default_rng(seed).permutation(len(fits))
    a = pool(fits)["b"]
    b = pool([fits[i] for i in perm])["b"]
    assert a.estimate == pytest.approx(b.estimate, rel=1e-12, abs=1e-12)
    assert a.total == pytest.approx(b.total, rel=1e-12, abs=1e-12)


@given(seed=st.integers(0, 2**16), lag=st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_autocorr_stays_in_unit_interval(seed, lag):
    x = np.random.default_rng(seed).normal(size=64)
    assert -1.0 <= autocorr(np.cumsum(x), min(lag, 63)) <= 1.0


@given(seed=st.integers(0, 2**16), p=st.integers(2, 6))
@settings(max_examples=100, deadline=None)
def test_conditional_cov_ignores_observed_values(seed, p):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(p, p))
    params = MvnParams(rng.normal(size=p), a @ a.T + p * np.eye(p))
    k = int(rng.integers(1, p))
    obs = np.sort(rng.choice(p, size=k, replace=False))
    c1 = conditional_mvn(params, obs, rng.normal(size=k) * 10)
    c2 = conditional_mvn(params, obs, rng.normal(size=k) * 10)
    np.testing.assert_array_equal(c1.cov, c2.cov)


@given(
    seed=st.integers(0, 2**16),
    n_levels=st.integers(2, 6),
    n=st.integers(1, 40),
)
@settings(max_examples=150, deadline=None)
def test_latent_encode_decode_identity(seed, n_levels, n):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, n_levels, size=n).astype(float)
    codes[rng.random(n) < 0.3] = np.nan
    z = encode_latent(RngStream(seed), codes, n_levels)
    got = decode_latent(z)
    obs = ~np.isnan(codes)
    np.testing.assert_array_equal(got[obs], codes[obs])
    assert set(got) <= set(float(k) for k in range(n_levels))


def stacked_row_codes(d, formula):
    """Codes from ``np.unique`` over the stacked grouping columns, rows
    ranked lexicographically (outermost first)."""
    codes, key = [], np.empty((d.n_rows, 0))
    for g in formula.random:
        key = np.column_stack([key, d.column(g)])
        codes.append(np.unique(key, axis=0, return_inverse=True)[1].ravel())
    return codes


label = st.sampled_from([-3.5, -0.0, 0.0, 1.0, 2.0, 7.25, 1e9])


@given(rows=st.lists(st.tuples(label, label), min_size=1, max_size=60),
       levels=st.sampled_from(["school/id", "school", "id"]))
@settings(max_examples=150, deadline=None)
def test_grouping_codes_match_stacked_rows(rows, levels):
    # few labels, so inner labels recur under several outer ones
    school, student = np.array(rows).T
    d = Dataset(
        [ColumnSpec("school", "continuous", "cluster-id"),
         ColumnSpec("id", "continuous", "unit-id"),
         ColumnSpec("y", "continuous", "analysis")],
        np.column_stack([school, student, np.zeros(len(rows))]),
        shape_kind="wide", validate=False,
    )
    formula = parse_formula(f"y ~ (1|{levels})")
    got = grouping_codes(d, formula)
    want = stacked_row_codes(d, formula)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
