import csv
import io
import json
import locale
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import longmi.table as table
from longmi.stack import ImputedStack
from longmi.errors import (
    BadConfig,
    DuplicateTimePoint,
    MalformedWideName,
    MissingInFactor,
    UnknownStub,
)
from longmi.table import (
    BLOCK_ROWS,
    ColumnSpec,
    Dataset,
    ReshapeMap,
    available_case_filter,
    copy_path,
    dummy_expand,
    incomplete_fraction,
    read_csv,
    reshape_long_to_wide,
    reshape_wide_to_long,
    write_csv,
)

NA = np.nan


def cats_like_long(rows):
    """Small long dataset in the canonical (fixed..., time, stubs...) layout."""
    cols = [
        ColumnSpec("id", "continuous", "unit-id"),
        ColumnSpec("age", "continuous", "analysis"),
        ColumnSpec("time", "continuous", "time"),
        ColumnSpec("prev_dep", "binary", "analysis"),
        ColumnSpec("numeracy_score", "continuous", "analysis"),
    ]
    data = {k: [r[i] for r in rows] for i, k in enumerate(
        ["id", "age", "time", "prev_dep", "numeracy_score"])}
    return Dataset.build(cols, data, shape_kind="long")


CATS_MAP = ReshapeMap(
    stubs=("prev_dep", "numeracy_score"), times=(3, 5, 7), time_fixed=("age",)
)


class TestLongToWide:
    def test_one_unit_three_waves(self):
        d = cats_like_long([
            (1, 8, 3, 1, 2.0),
            (1, 8, 5, 1, 2.0),
            (1, 8, 7, 1, 2.0),
        ])
        w = reshape_long_to_wide(d, CATS_MAP)
        assert w.n_rows == 1
        assert w.col_names == (
            "id", "age",
            "prev_dep.3", "numeracy_score.3",
            "prev_dep.5", "numeracy_score.5",
            "prev_dep.7", "numeracy_score.7",
        )
        assert w.column("prev_dep.3")[0] == 1
        assert w.column("numeracy_score.7")[0] == 2.0
        assert not w.mask.any()

    def test_single_wave_identity(self):
        d = cats_like_long([(1, 9, 3, 0, 1.5)])
        m = ReshapeMap(("prev_dep", "numeracy_score"), (3,), ("age",))
        w = reshape_long_to_wide(d, m)
        assert w.n_rows == 1
        assert w.column("prev_dep.3")[0] == 0
        assert w.column("numeracy_score.3")[0] == 1.5

    def test_absent_wave_masked(self):
        d = cats_like_long([
            (1, 8, 3, 1, 2.0),
            (1, 8, 7, 0, 1.0),
        ])
        m = ReshapeMap(("prev_dep", "numeracy_score"), (3, 5, 7), ("age",))
        with pytest.warns(UserWarning, match="unbalanced"):
            w = reshape_long_to_wide(d, m)
        # expected cells enumerated by hand for the 2-row input
        assert w.column("prev_dep.3")[0] == 1
        assert w.column("numeracy_score.3")[0] == 2.0
        assert w.column_mask("prev_dep.5")[0] and w.column_mask("numeracy_score.5")[0]
        assert w.column("prev_dep.7")[0] == 0
        assert w.column("numeracy_score.7")[0] == 1.0

    def test_duplicate_time_rejected(self):
        d = cats_like_long([(1, 8, 3, 1, 2.0)])
        dup = Dataset(d.columns, np.vstack([d.values, d.values]),
                      shape_kind="long", validate=False)
        with pytest.raises(DuplicateTimePoint):
            reshape_long_to_wide(dup, CATS_MAP)

    def test_unknown_stub_rejected(self):
        d = cats_like_long([(1, 8, 3, 1, 2.0)])
        m = ReshapeMap(("prev_dep",), (3, 5, 7), ("age",))
        with pytest.raises(UnknownStub):
            reshape_long_to_wide(d, m)


class TestWideToLong:
    def test_round_trip_balanced(self):
        d = cats_like_long([
            (1, 8, 3, 1, 2.0), (1, 8, 5, 1, NA), (1, 8, 7, 0, 2.0),
            (2, 7, 3, NA, -1.0), (2, 7, 5, 0, -1.0), (2, 7, 7, 0, 0.0),
        ])
        back = reshape_wide_to_long(reshape_long_to_wide(d, CATS_MAP), CATS_MAP)
        assert back.equals(d)

    def test_two_unit_two_wave_hand_enumeration(self):
        cols = [
            ColumnSpec("id", "continuous", "unit-id"),
            ColumnSpec("x.3", "continuous", "analysis"),
            ColumnSpec("x.5", "continuous", "analysis"),
        ]
        w = Dataset.build(cols, {"id": [1, 2], "x.3": [10, 30], "x.5": [20, 40]},
                          shape_kind="wide")
        m = ReshapeMap(("x",), (3, 5))
        lg = reshape_wide_to_long(w, m)
        assert lg.n_rows == 4
        assert list(lg.column("id")) == [1, 1, 2, 2]
        assert list(lg.column("time")) == [3, 5, 3, 5]
        assert list(lg.column("x")) == [10, 20, 30, 40]

    def test_malformed_wide_name(self):
        cols = [
            ColumnSpec("id", "continuous", "unit-id"),
            ColumnSpec("x", "continuous", "analysis"),
        ]
        w = Dataset.build(cols, {"id": [1], "x": [1.0]}, shape_kind="wide")
        with pytest.raises(MalformedWideName):
            reshape_wide_to_long(w, ReshapeMap(("x",), (3,)))


@st.composite
def balanced_long_datasets(draw):
    n_units = draw(st.integers(1, 6))
    times = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True))
    n_stubs = draw(st.integers(1, 3))
    rows = []
    for u in range(1, n_units + 1):
        fixed = draw(st.floats(-5, 5, allow_nan=False))
        for t in times:
            vals = [
                draw(st.one_of(st.none(), st.floats(-5, 5, allow_nan=False)))
                for _ in range(n_stubs)
            ]
            rows.append((u, fixed, t, vals))
    cols = [
        ColumnSpec("id", "continuous", "unit-id"),
        ColumnSpec("base", "continuous", "analysis"),
        ColumnSpec("time", "continuous", "time"),
    ] + [ColumnSpec(f"v{j}", "continuous", "analysis") for j in range(n_stubs)]
    data = {
        "id": [r[0] for r in rows],
        "base": [r[1] for r in rows],
        "time": [r[2] for r in rows],
    }
    for j in range(n_stubs):
        data[f"v{j}"] = [NA if r[3][j] is None else r[3][j] for r in rows]
    d = Dataset.build(cols, data, shape_kind="long")
    m = ReshapeMap(tuple(f"v{j}" for j in range(n_stubs)), tuple(times), ("base",))
    return d, m


@given(balanced_long_datasets())
@settings(max_examples=150, deadline=None)
def test_round_trip_property(case):
    d, m = case
    w = reshape_long_to_wide(d, m)
    assert reshape_wide_to_long(w, m).equals(d)


@given(balanced_long_datasets())
@settings(max_examples=60, deadline=None)
def test_reshape_preserves_cell_multiset(case):
    d, m = case
    w = reshape_long_to_wide(d, m)

    def long_cells(ds):
        out = set()
        unit = ds.column("id")
        time = ds.column("time")
        for j, c in enumerate(ds.columns):
            if c.name in m.stubs:
                for r in range(ds.n_rows):
                    v = None if ds.mask[r, j] else ds.values[r, j]
                    out.add((unit[r], c.name, time[r], v, bool(ds.mask[r, j])))
        return out

    def wide_cells(ds):
        out = set()
        unit = ds.column("id")
        for j, c in enumerate(ds.columns):
            if "." in c.name:
                stub, t = m.parse_wide_name(c.name)
                for r in range(ds.n_rows):
                    v = None if ds.mask[r, j] else ds.values[r, j]
                    out.add((unit[r], stub, float(t), v, bool(ds.mask[r, j])))
        return out

    assert long_cells(d) == wide_cells(w)


class TestDummyExpand:
    def setup_method(self):
        self.d = Dataset.build(
            [
                ColumnSpec("id", "continuous", "unit-id"),
                ColumnSpec("school", "continuous", "cluster-id"),
                ColumnSpec("y", "continuous", "analysis"),
            ],
            {"id": [1, 2, 3, 4], "school": [1, 2, 3, 2], "y": [0.0, 1, 2, 3]},
            shape_kind="wide",
        )

    def test_reference_coding(self):
        out = dummy_expand(self.d, "school", drop_first=True)
        assert "school_2" in out.col_names and "school_3" in out.col_names
        assert "school_1" not in out.col_names
        np.testing.assert_array_equal(out.column("school_2"), [0, 1, 0, 1])
        np.testing.assert_array_equal(out.column("school_3"), [0, 0, 1, 0])
        # level-1 rows are all zeros
        assert out.column("school_2")[0] == 0 and out.column("school_3")[0] == 0

    def test_binary_single_indicator(self):
        d = Dataset.build(
            [
                ColumnSpec("id", "continuous", "unit-id"),
                ColumnSpec("sex", "binary", "analysis"),
            ],
            {"id": [1, 2], "sex": [0, 1]},
            shape_kind="wide",
        )
        out = dummy_expand(d, "sex", drop_first=True)
        np.testing.assert_array_equal(out.column("sex_1"), [0, 1])

    def test_forty_levels_row_sums(self):
        rng = np.random.default_rng(0)
        school = rng.integers(1, 41, size=500)
        school[:40] = np.arange(1, 41)  # every level observed
        d = Dataset.build(
            [
                ColumnSpec("id", "continuous", "unit-id"),
                ColumnSpec("school", "continuous", "cluster-id"),
            ],
            {"id": np.arange(500), "school": school},
            shape_kind="wide",
        )
        out = dummy_expand(d, "school", drop_first=True)
        ind_cols = [n for n in out.col_names if n.startswith("school_")]
        assert len(ind_cols) == 39
        sums = np.sum([out.column(n) for n in ind_cols], axis=0)
        assert (sums <= 1).all()
        # reference level rows reconstruct as all-zero
        assert ((sums == 0) == (school == 1)).all()

    def test_missing_in_factor(self):
        d = Dataset.build(
            [
                ColumnSpec("id", "continuous", "unit-id"),
                ColumnSpec("g", "categorical", "analysis", ("a", "b")),
            ],
            {"id": [1, 2], "g": [0, NA]},
            shape_kind="wide",
        )
        with pytest.raises(MissingInFactor):
            dummy_expand(d, "g")


def test_missing_cell_in_cluster_id_column():
    with pytest.raises(BadConfig, match=r"cluster-id column 'g' has a missing "
                       r"cell \(row 2\)"):
        Dataset.build(
            [
                ColumnSpec("id", "continuous", "unit-id"),
                ColumnSpec("g", "continuous", "cluster-id"),
                ColumnSpec("x", "continuous", "analysis"),
                ColumnSpec("time", "continuous", "time"),
            ],
            {"id": np.arange(3), "g": [1, NA, NA], "x": [1.0, 2.0, 3.0],
             "time": np.arange(3)},
            shape_kind="long",
        )


class TestAvailableCase:
    def test_no_missing_identity(self):
        d = cats_like_long([(1, 8, 3, 1, 2.0), (2, 7, 3, 0, 1.0)])
        out = available_case_filter(d, ["prev_dep", "numeracy_score"])
        assert out.equals(d)

    def test_drops_masked_row(self):
        d = cats_like_long([(1, 8, 3, 1, 2.0), (2, 7, 3, NA, 1.0)])
        out = available_case_filter(d, ["prev_dep", "numeracy_score"])
        assert out.n_rows == 1
        assert out.column("id")[0] == 1

    def test_output_mask_clean_on_model_vars(self):
        d = cats_like_long([
            (1, 8, 3, 1, NA), (1, 8, 5, NA, 2.0), (1, 8, 7, 0, 0.5),
        ])
        out = available_case_filter(d, ["prev_dep", "numeracy_score"])
        assert not out.column_mask("prev_dep").any()
        assert not out.column_mask("numeracy_score").any()


def test_incomplete_fraction_counts_analysis_roles():
    d = cats_like_long([
        (1, 8, 3, 1, NA), (1, 8, 5, 1, 2.0),
        (2, 7, 3, NA, 1.0), (2, 7, 5, 0, 1.0),
    ])
    assert incomplete_fraction(d, "long") == pytest.approx(0.5)
    m = ReshapeMap(("prev_dep", "numeracy_score"), (3, 5), ("age",))
    assert incomplete_fraction(d, "wide", m) == pytest.approx(1.0)
    full = cats_like_long([(1, 8, 3, 1, 2.0)])
    assert incomplete_fraction(full, "long") == 0.0


def test_csv_round_trip(tmp_path):
    d = Dataset.build(
        [
            ColumnSpec("id", "continuous", "unit-id"),
            ColumnSpec("ses", "categorical", "analysis", ("1", "2", "3")),
            ColumnSpec("sex", "binary", "analysis"),
            ColumnSpec("score", "continuous", "analysis"),
        ],
        {
            "id": [1, 2, 3],
            "ses": [0, NA, 2],
            "sex": [1, 0, NA],
            "score": [0.1234567890123, NA, -3.0],
        },
        shape_kind="wide",
    )
    path = str(tmp_path / "d.csv")
    write_csv(d, path)
    text = open(path).read()
    assert "NA" in text and "0.1234567890123" in text
    back = read_csv(path)
    assert back.equals(d)
    # writing is deterministic
    write_csv(d, str(tmp_path / "d2.csv"))
    assert open(str(tmp_path / "d2.csv")).read() == text


def test_dataset_is_immutable():
    d = cats_like_long([(1, 8, 3, 1, 2.0)])
    with pytest.raises(ValueError, match="read-only"):
        d.values[0, 0] = 99.0
    with pytest.raises(ValueError, match="read-only"):
        d.mask[0, 0] = True


# -- the codec against the per-cell writer and reader it replaced -------------


def percell_write(d, path):
    """Frozen copy of the per-cell CSV writer (sidecar left to write_csv)."""

    def cell(spec, value, masked):
        if masked:
            return "NA"
        if spec.levels is not None:
            return spec.levels[int(value)]
        if float(value).is_integer() and abs(value) < 1e15:
            return str(int(value))
        return repr(float(value))

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(d.col_names)
        for r in range(d.n_rows):
            w.writerow(
                cell(c, d.values[r, j], d.mask[r, j]) for j, c in enumerate(d.columns)
            )


def percell_read(path, meta_path):
    """Frozen copy of the per-cell CSV reader: (values, mask)."""
    with open(meta_path) as fh:
        meta = json.load(fh)
    by_name = {
        c["name"]: ColumnSpec(c["name"], c["kind"], c["role"],
                              tuple(c["levels"]) if c.get("levels") else None)
        for c in meta["columns"]
    }
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        ordered = [by_name[h] for h in next(reader)]
        rows = list(reader)
    values = np.full((len(rows), len(ordered)), np.nan)
    for r, row in enumerate(rows):
        for j, (spec, tok) in enumerate(zip(ordered, row)):
            tok = tok.strip()
            if tok in ("", "NA"):
                continue
            values[r, j] = spec.level_index(tok) if spec.levels else float(tok)
    return values, np.isnan(values)


AWKWARD_FLOATS = [
    -0.0, 0.0, np.inf, -np.inf, 1e15 - 1, 1e15, 1e15 + 1, -(1e15 - 1), -1e15,
    2.0**53, 2.0**53 + 2, 5e-324, 2.2250738585072014e-308 / 3, 0.1 + 0.2,
    -7.0, 1e300, 0.5,
]
# "" and "NA" are not valid levels (they read back as missing)
LABEL_TEXT = st.text(alphabet='ab,"\n NA', min_size=0, max_size=4).filter(
    lambda s: s == s.strip() and s not in ("", "NA")
)


@st.composite
def codec_datasets(draw, n):
    labels = draw(st.lists(LABEL_TEXT, min_size=3, max_size=4, unique=True))
    floats = draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_miss = draw(st.sampled_from([0.0, 0.3, 1.0]))
    pool = np.array(AWKWARD_FLOATS + floats)
    cols = [
        ColumnSpec("id", "continuous", "unit-id"),
        ColumnSpec("x", "continuous", "analysis"),
        ColumnSpec("c" + labels[0], "categorical", "analysis", tuple(labels)),
        ColumnSpec("b", "binary", "auxiliary", tuple(labels[1:3])),
    ]
    values = np.column_stack([
        gen.permutation(n) - n // 2,
        gen.choice(pool, n),
        gen.integers(0, len(labels), n),
        gen.integers(0, 2, n),
    ]).astype(float).reshape(n, 4)
    mask = np.zeros_like(values, dtype=bool)
    mask[:, 1:] = gen.random((n, 3)) < p_miss
    return Dataset(cols, values, mask, shape_kind="wide")


@pytest.mark.parametrize(
    "n", [0, 1, 5, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]
)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_codec_matches_percell_oracle(tmp_path_factory, n, data):
    d = data.draw(codec_datasets(n))
    tmp = tmp_path_factory.mktemp("codec")
    new, old = str(tmp / "new.csv"), str(tmp / "old.csv")
    write_csv(d, new)
    percell_write(d, old)
    assert open(new, "rb").read() == open(old, "rb").read()
    values, mask = percell_read(new, str(tmp / "new.meta.json"))
    back = read_csv(new)
    assert back.col_names == d.col_names
    np.testing.assert_array_equal(back.mask, mask)
    np.testing.assert_array_equal(back.values.view(np.int64), values.view(np.int64))


def test_codec_single_column_quoted_labels(tmp_path):
    d = Dataset(
        [ColumnSpec("id", "categorical", "unit-id", (" ", "a,b", 'q"'))],
        np.array([[1.0], [2.0], [0.0]]),
        shape_kind="wide",
        validate=False,
    )
    write_csv(d, str(tmp_path / "new.csv"))
    percell_write(d, str(tmp_path / "old.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def stacked_dataset(gen, m, n_units):
    """An ``Imputation``-indexed stack: copy 0 holds masked cells, copies
    1..m fill them with fresh draws, so values recur within and across
    copies. Unmasked NaN and +-inf sit among the floats."""
    labels = ("a,b", 'q"', "p q", "x\r\ny")
    cols = [
        ColumnSpec("Imputation", "continuous", "auxiliary"),
        ColumnSpec("id", "continuous", "unit-id"),
        ColumnSpec("time", "continuous", "time"),
        ColumnSpec("x", "continuous", "analysis"),
        ColumnSpec("g", "categorical", "analysis", labels),
        ColumnSpec("b", "binary", "auxiliary", labels[:2]),
    ]
    pool = np.array(AWKWARD_FLOATS + [np.nan, -np.inf, 1 / 3])
    n = 2 * n_units
    base = np.column_stack([
        np.zeros(n),
        np.repeat(np.arange(n_units), 2),
        np.tile([1.0, 2.0], n_units),
        gen.choice(pool, n),
        gen.integers(0, len(labels), n),
        gen.integers(0, 2, n),
    ])
    holes = np.zeros_like(base, dtype=bool)
    holes[:, 3:] = gen.random((n, 3)) < 0.3
    copies, masks = [base], [holes]
    for k in range(1, m + 1):
        fill = np.column_stack([
            gen.choice(pool, n), gen.integers(0, len(labels), n), gen.integers(0, 2, n)
        ])
        copy = base.copy()
        copy[:, 0] = k
        copy[:, 3:] = np.where(holes[:, 3:], fill, base[:, 3:])
        copies.append(copy)
        masks.append(np.zeros_like(holes))
    return Dataset(cols, np.vstack(copies), np.vstack(masks), shape_kind="long")


def test_stack_codec_matches_percell_oracle(tmp_path):
    d = stacked_dataset(np.random.default_rng(11), m=3, n_units=1100)
    assert d.n_rows > 2 * BLOCK_ROWS
    new, old = str(tmp_path / "new.csv"), str(tmp_path / "old.csv")
    write_csv(d, new)
    percell_write(d, old)
    assert open(new, "rb").read() == open(old, "rb").read()
    text = open(new).read()
    assert ",-inf," in text and ",inf," in text and ",nan," in text
    values, mask = percell_read(new, str(tmp_path / "new.meta.json"))
    back = read_csv(new)
    np.testing.assert_array_equal(back.mask, mask)
    np.testing.assert_array_equal(back.values.view(np.int64), values.view(np.int64))


def test_read_strips_padded_and_missing_tokens(tmp_path):
    d = Dataset.build(
        [ColumnSpec("id", "continuous", "unit-id"),
         ColumnSpec("g", "categorical", "analysis", ("lo", "hi", " pad")),
         ColumnSpec("x", "continuous", "analysis")],
        {"id": [1, 2, 3, 4], "g": [0, 1, 2, 0], "x": [1.5, 2.0, 3.0, 4.0]},
        shape_kind="wide",
    )
    path = tmp_path / "d.csv"
    write_csv(d, str(path))
    path.write_text(
        "id,g,x\r\n1, lo ,1.5\r\n2,hi, \r\n3, pad,NA\r\n4,,  4\r\n"
    )
    back = read_csv(str(path))
    np.testing.assert_array_equal(back.column("g")[:3], [0, 1, 2])
    assert back.column_mask("g").tolist() == [False, False, False, True]
    np.testing.assert_array_equal(back.column("x")[[0, 3]], [1.5, 4.0])
    assert back.column_mask("x").tolist() == [False, True, True, False]


def _write_pair(tmp_path, text):
    d = Dataset.build(
        [ColumnSpec("id", "continuous", "unit-id"),
         ColumnSpec("x", "continuous", "analysis")],
        {"id": [1.0], "x": [2.0]},
        shape_kind="wide",
    )
    path = tmp_path / "d.csv"
    write_csv(d, str(path))
    path.write_text(text)
    # the copy of the valid file stays beside the edited one, stale
    assert (tmp_path / "d.values.npz").exists()
    return str(path)


@pytest.mark.parametrize("text, line", [
    ("id,x\r\n1,2\r\n2\r\n", 3),
    ("id,x\r\n1,2,3\r\n", 2),
    ('id,x\r\n1,"a\r\nb"\r\n2,3,4\r\n', 4),
    ("id,x\r\n1,2\r\n\r\n", 3),
])
def test_row_width_mismatch_names_line(tmp_path, text, line):
    path = _write_pair(tmp_path, text)
    with pytest.raises(BadConfig, match=f"d.csv, line {line}: "):
        read_csv(path)


def test_oversized_field_names_line(tmp_path):
    big = "9" * (csv.field_size_limit() + 1)
    path = _write_pair(tmp_path, f"id,x\r\n1,2\r\n2,{big}\r\n")
    with pytest.raises(BadConfig, match="d.csv, line 3: field larger than field limit"):
        read_csv(path)


def test_undecodable_byte_names_line(tmp_path):
    data = b"id,x\r\n1,2\r\n2,3\xff\r\n"
    encoding = locale.getpreferredencoding(False)
    try:
        data.decode(encoding)
        pytest.skip(f"{encoding} decodes every byte")
    except UnicodeDecodeError:
        pass
    path = _write_pair(tmp_path, "")
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(BadConfig, match=f"d.csv, line 3: not {encoding} text"):
        read_csv(path)


@pytest.mark.parametrize("text", ["id,y\r\n1,2\r\n", "id\r\n1\r\n",
                                  "id,x,x\r\n1,2,3\r\n", ""])
def test_header_mismatch(tmp_path, text):
    path = _write_pair(tmp_path, text)
    with pytest.raises(BadConfig, match="d.csv, line 1: header"):
        read_csv(path)


def test_non_number_names_line(tmp_path):
    path = _write_pair(tmp_path, "id,x\r\n1,2\r\n2,abc\r\n")
    with pytest.raises(BadConfig, match="line 3: 'abc' in column 'x'"):
        read_csv(path)


def _float_rows(bad_row=None):
    """``id,x`` rows: the first block mixes NA, empty and padded tokens,
    and ``bad_row`` (0-based, in a later block) holds a non-number."""
    x = [repr(0.25 * r) for r in range(BLOCK_ROWS + 50)]
    x[3], x[7], x[11], x[12], x[20] = "NA", "", " NA ", "  ", " 2.5 "
    if bad_row is not None:
        x[bad_row] = "2.5x"
    return "id,x\r\n" + "".join(f"{r},{t}\r\n" for r, t in enumerate(x))


def test_float_block_with_missing_and_padded_tokens(tmp_path):
    path = _write_pair(tmp_path, _float_rows())
    back = read_csv(path)
    missing = np.flatnonzero(back.column_mask("x"))
    assert missing.tolist() == [3, 7, 11, 12]
    assert back.column("x")[20] == 2.5
    assert back.column("x")[BLOCK_ROWS + 10] == 0.25 * (BLOCK_ROWS + 10)


def test_non_number_in_later_block_names_line(tmp_path):
    bad = BLOCK_ROWS + 30
    path = _write_pair(tmp_path, _float_rows(bad))
    with pytest.raises(BadConfig, match=f"line {bad + 2}: '2.5x' in column 'x'"):
        read_csv(path)


@pytest.mark.parametrize("shape, text, line", [
    ("long", "id,time\r\n1,3\r\n2,3\r\n1,5\r\n2,3\r\n1,3\r\n", 5),
    ("wide", "id,time\r\n1,3\r\n2,3\r\n2,5\r\n1,5\r\n", 4),
])
def test_repeated_key_names_line(tmp_path, shape, text, line):
    path = tmp_path / "d.csv"
    path.write_text(text)
    (tmp_path / "d.meta.json").write_text(json.dumps({
        "shape": shape,
        "columns": [
            {"name": "id", "kind": "continuous", "role": "unit-id"},
            {"name": "time", "kind": "continuous", "role": "time"},
        ],
    }))
    with pytest.raises(BadConfig, match=f"d.csv, line {line}: the key columns"):
        read_csv(str(path))


def test_stack_repeats_units_across_imputations(tmp_path):
    d = stacked_dataset(np.random.default_rng(3), m=2, n_units=5)
    keys = d.with_columns(d.columns[:3], d.values[:, :3], d.mask[:, :3])
    path = str(tmp_path / "s.csv")
    write_csv(keys, path)
    assert read_csv(path).n_rows == 30
    write_csv(keys.take(np.r_[0:14, 12, 14:30]), path)
    with pytest.raises(BadConfig, match="s.csv, line 16: the key columns "
                       "'Imputation', 'id', 'time' repeat"):
        read_csv(path)


def _lexsort_first_repeat(values, key):
    """The sort-only search: first row equal to an earlier one on the key."""
    order = np.lexsort([values[:, j] for j in key][::-1])
    rows = values[np.ix_(order, key)]
    repeats = order[1:][(rows[1:] == rows[:-1]).all(axis=1)]
    return int(repeats.min()) if repeats.size else None


def test_first_repeat_sorted_and_unsorted_stacks():
    d = stacked_dataset(np.random.default_rng(5), m=3, n_units=6)
    keys = d.values[:, :3]  # Imputation, id, time: written in sorted order
    key = [0, 1, 2]
    assert table._first_repeat(keys, key) is None
    # a sorted stack with an adjacent repeat
    sorted_rep = keys[np.r_[0:20, 19, 20:len(keys)]]
    assert table._first_repeat(sorted_rep, key) == 20
    assert _lexsort_first_repeat(sorted_rep, key) == 20
    # an unsorted stack with a repeat: the earliest later copy is named
    perm = np.random.default_rng(6).permutation(len(keys))
    unsorted_rep = keys[np.r_[perm, perm[[30, 4]]]]
    assert table._first_repeat(keys[perm], key) is None
    assert table._first_repeat(unsorted_rep, key) == len(keys)
    assert _lexsort_first_repeat(unsorted_rep, key) == len(keys)
    # NaN matches nothing, in the deciding column or after it
    nan_rows = sorted_rep.copy()
    nan_rows[[19, 20], 2] = np.nan
    assert table._first_repeat(nan_rows, key) is None
    nan_rows[[19, 20], 2] = sorted_rep[19, 2]
    nan_rows[5, 0] = np.nan
    assert table._first_repeat(nan_rows, key) == _lexsort_first_repeat(nan_rows, key) == 20


def test_unknown_level_names_line(tmp_path):
    d = Dataset.build(
        [ColumnSpec("id", "continuous", "unit-id"),
         ColumnSpec("g", "categorical", "analysis", ("lo", "h\r\ni"))],
        {"id": [1, 2, 3], "g": [0, 1, 0]},
        shape_kind="wide",
    )
    path = tmp_path / "d.csv"
    write_csv(d, str(path))
    path.write_text('id,g\r\n1,lo\r\n2,"h\r\ni"\r\n3,mid\r\n4,lo\r\n')
    with pytest.raises(BadConfig, match="d.csv, line 5: 'mid' in column 'g' is not one"):
        read_csv(str(path))


@pytest.mark.parametrize("label", ["", "NA"])
def test_missing_token_level_rejected(label):
    with pytest.raises(ValueError, match="would read back as missing"):
        ColumnSpec("g", "categorical", "analysis", ("lo", label))
    with pytest.raises(ValueError, match="would read back as missing"):
        ColumnSpec("b", "binary", "analysis", (label, "yes"))


@pytest.mark.parametrize("column", [
    {"name": "x", "kind": "categorical", "role": "analysis", "levels": ["lo", "NA"]},
    {"name": "x", "kind": "ordinal", "role": "analysis"},
    {"name": "x", "kind": "continuous"},
    ["x", "continuous", "analysis"],
])
def test_invalid_sidecar_column_names_sidecar(tmp_path, column):
    path = _write_pair(tmp_path, "id,x\r\n1,2\r\n")
    meta = tmp_path / "d.meta.json"
    spec = json.loads(meta.read_text())
    spec["columns"][1] = column
    meta.write_text(json.dumps(spec))
    with pytest.raises(BadConfig, match="d.meta.json: invalid sidecar"):
        read_csv(path)


@pytest.mark.parametrize("text", ['{"shape": "wide", "columns": [', '{"columns": []}', "[]"])
def test_malformed_sidecar_names_sidecar(tmp_path, text):
    path = _write_pair(tmp_path, "id,x\r\n1,2\r\n")
    (tmp_path / "d.meta.json").write_text(text)
    with pytest.raises(BadConfig, match="d.meta.json: invalid sidecar"):
        read_csv(path)


def test_missing_sidecar(tmp_path):
    (tmp_path / "d.csv").write_text("id,x\r\n1,2\r\n")
    with pytest.raises(BadConfig, match="d.meta.json not found"):
        read_csv(str(tmp_path / "d.csv"))


# -- the binary copy beside a written CSV ---------------------------------------


def _parse_calls(mp):
    """Count the row parses ``read_csv`` makes from here on."""
    calls = []
    parse = table._parse_rows

    def spy(*args):
        calls.append(args[0])
        return parse(*args)

    mp.setattr(table, "_parse_rows", spy)
    return calls


def _no_parse(*args):
    raise AssertionError("the copy should have stood in for the parse")


def _same_read(a, b):
    assert a.columns == b.columns and a.shape_kind == b.shape_kind
    np.testing.assert_array_equal(a.mask, b.mask)
    np.testing.assert_array_equal(a.values.view(np.int64), b.values.view(np.int64))


@given(n=st.sampled_from([0, 1, 5, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
       data=st.data())
@settings(max_examples=12, deadline=None)
def test_copy_read_matches_parse(tmp_path_factory, n, data):
    # -0.0 (written 0), +-inf, ints of 1e15 and more, masked cells and
    # labels that need csv quoting all come from codec_datasets
    d = data.draw(codec_datasets(n))
    tmp = tmp_path_factory.mktemp("copy")
    path = str(tmp / "d.csv")
    write_csv(d, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table, "_parse_rows", _no_parse)
        cached = read_csv(path)
    os.remove(copy_path(path))
    parsed = read_csv(path)
    _same_read(cached, parsed)
    # the block parser still agrees with the per-cell reader it replaced
    values, mask = percell_read(path, str(tmp / "d.meta.json"))
    np.testing.assert_array_equal(parsed.mask, mask)
    np.testing.assert_array_equal(parsed.values.view(np.int64), values.view(np.int64))


def test_stack_copy_read_matches_parse(tmp_path, monkeypatch):
    d = stacked_dataset(np.random.default_rng(5), m=3, n_units=1100)
    path = str(tmp_path / "s.csv")
    write_csv(d, path)
    monkeypatch.setattr(table, "_parse_rows", _no_parse)
    cached = read_csv(path)
    monkeypatch.undo()
    os.remove(copy_path(path))
    _same_read(cached, read_csv(path))


def test_dataset_freezes_the_arrays_it_is_handed():
    cols = [ColumnSpec("id", "continuous", "unit-id"), ColumnSpec("x", "continuous")]
    values = np.array([[1.0, 2.0], [2.0, 5.0]])
    mask = np.array([[False, False], [False, True]])
    d = Dataset(cols, values, mask)
    # the caller's arrays are the dataset's now: frozen, masked cell NaN
    for held in (values, mask, values[:, 1], d.values, d.mask):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 9
    assert np.isnan(d.values[1, 1]) and d.values[0, 1] == 2.0
    # a view of memory its caller may still write is copied
    base = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
    v = Dataset(cols, base[:2], base[:2] != base[:2])
    base[:] = 0
    np.testing.assert_array_equal(v.values, [[1.0, 2.0], [2.0, 3.0]])
    assert base.flags.writeable
    # a read-only array whose masked cells are not NaN yet is copied too
    hole = Dataset(cols, d.values, np.array([[False, True], [False, False]]))
    assert np.isnan(hole.values[0, 1]) and d.values[0, 1] == 2.0


def test_dataset_keeps_an_npz_member_and_frozen_views(tmp_path):
    cols = [ColumnSpec("id", "continuous", "unit-id"), ColumnSpec("x", "continuous")]
    np.savez(tmp_path / "v.npz", values=np.arange(8.0).reshape(4, 2))
    with np.load(tmp_path / "v.npz") as z:
        loaded = z["values"]
    assert loaded.base is not None and loaded.flags.writeable
    d = Dataset(cols, loaded)
    assert d.values is loaded and not loaded.base.flags.writeable
    part = Dataset(cols, d.values[1:3])
    assert np.shares_memory(part.values, d.values)
    # a base that something else still holds is not the dataset's to freeze
    flat = np.arange(8.0)
    held = Dataset(cols, flat.reshape(4, 2))
    assert flat.flags.writeable and not np.shares_memory(held.values, flat)


def _parent_split(d):
    """Parts of a stacked dataset as an earlier version split them: rows of
    each tag in file order, the Imputation column dropped."""
    tags = d.column("Imputation")
    j = d.col_index("Imputation")
    return [
        (np.delete(d.values[tags == k], j, axis=1), np.delete(d.mask[tags == k], j, axis=1))
        for k in range(int(tags.max()) + 1)
    ]


def _split_arrays(stack):
    return [(p.values, p.mask) for p in (stack.original, *stack.imputations)]


def test_split_parts_are_views_of_a_written_stack(tmp_path):
    d = stacked_dataset(np.random.default_rng(21), m=3, n_units=300)
    path = str(tmp_path / "s.csv")
    write_csv(d, path)
    back = read_csv(path)
    stack = ImputedStack.from_stacked(back)
    for values, mask in _split_arrays(stack):
        assert np.shares_memory(values, back.values)
        assert np.shares_memory(mask, back.mask)
        assert not values.flags.writeable and not mask.flags.writeable
    for (a, am), (b, bm) in zip(_split_arrays(stack), _parent_split(back)):
        np.testing.assert_array_equal(am, bm)
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def test_shuffled_or_reordered_stack_splits_as_before():
    gen = np.random.default_rng(22)
    d = stacked_dataset(gen, m=3, n_units=50)
    rows = gen.permutation(d.n_rows)
    shuffled = Dataset(d.columns, d.values[rows], d.mask[rows], validate=False)
    cols = [1, 2, 0, 3, 4, 5]  # Imputation third
    moved = Dataset([d.columns[k] for k in cols], d.values[:, cols],
                    d.mask[:, cols], validate=False)
    expect = _split_arrays(ImputedStack.from_stacked(d))
    for other in (shuffled, moved):
        stack = ImputedStack.from_stacked(other)
        assert stack.original.columns == d.columns[1:]
        got = _split_arrays(stack)
        for (a, am), (b, bm) in zip(got, _parent_split(other)):
            np.testing.assert_array_equal(am, bm)
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
        if other is moved:  # same rows in the same order as the grouped stack
            for (a, am), (b, bm) in zip(got, expect):
                np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
                np.testing.assert_array_equal(am, bm)


def test_stack_writes_as_its_stacked_form(tmp_path):
    stack = ImputedStack.from_stacked(stacked_dataset(np.random.default_rng(23), 2, 80))
    write_csv(stack, str(tmp_path / "parts.csv"))
    write_csv(stack.to_stacked(), str(tmp_path / "whole.csv"))
    for suffix in (".csv", ".meta.json"):
        assert ((tmp_path / f"parts{suffix}").read_bytes()
                == (tmp_path / f"whole{suffix}").read_bytes())
    with np.load(tmp_path / "parts.values.npz") as a, np.load(
        tmp_path / "whole.values.npz"
    ) as b:
        np.testing.assert_array_equal(a["values"].view(np.int64), b["values"].view(np.int64))


def _copy_pair(tmp_path):
    d = Dataset.build(
        [ColumnSpec("id", "continuous", "unit-id"),
         ColumnSpec("g", "categorical", "analysis", ("lo", "h,i")),
         ColumnSpec("x", "continuous", "analysis")],
        {"id": [1, 2, 3], "g": [0, 1, NA], "x": [1.5, -0.0, 3.25]},
        shape_kind="wide",
    )
    path = tmp_path / "d.csv"
    write_csv(d, str(path))
    return path, tmp_path / "d.meta.json", tmp_path / "d.values.npz"


def _edit_csv(path, meta, copy):
    path.write_bytes(path.read_bytes().replace(b"3.25", b"3.75"))


def _edit_sidecar(path, meta, copy):
    meta.write_text(json.dumps(json.loads(meta.read_text())))


def _truncate_copy(path, meta, copy):
    copy.write_bytes(copy.read_bytes()[: copy.stat().st_size // 2])


def _corrupt_copy(path, meta, copy):
    body = bytearray(copy.read_bytes())
    body[len(body) // 2: len(body) // 2 + 16] = b"\xff" * 16
    copy.write_bytes(bytes(body))


def _empty_copy(path, meta, copy):
    copy.write_bytes(b"")


def _copy_of_other_csv(path, meta, copy):
    other = path.parent / "other"
    other.mkdir()
    write_csv(read_csv(str(path)).take(np.array([2, 1, 0])), str(other / "d.csv"))
    copy.write_bytes((other / "d.values.npz").read_bytes())


def _encrypted_flag_copy(path, meta, copy):
    body = bytearray(copy.read_bytes())
    entry = body.find(b"PK\x01\x02")  # first central directory entry
    body[entry + 8] |= 1  # zipfile then asks for a password: RuntimeError
    copy.write_bytes(bytes(body))


def _plain_npy_copy(path, meta, copy):
    with np.load(copy) as z:
        values = z["values"]
    with open(copy, "wb") as fh:
        np.save(fh, values)


def _recast_copy(dtype, cols):
    def edit(path, meta, copy):
        with np.load(copy) as z:
            key, values = z["key"], z["values"]
        with open(copy, "wb") as fh:
            np.savez(fh, key=key, values=values[:, cols].astype(dtype))
    return edit


@pytest.mark.parametrize("edit", [
    _edit_csv, _edit_sidecar, _truncate_copy, _corrupt_copy, _empty_copy,
    _copy_of_other_csv, _encrypted_flag_copy, _plain_npy_copy,
    _recast_copy(np.float32, slice(None)),
    _recast_copy(float, slice(0, 2)), _recast_copy(float, [0, 1, 2, 2]),
])
def test_stale_or_broken_copy_falls_back_to_parse(tmp_path, monkeypatch, edit):
    path, meta, copy = _copy_pair(tmp_path)
    edit(path, meta, copy)
    calls = _parse_calls(monkeypatch)
    back = read_csv(str(path))
    assert calls == [str(path)]
    monkeypatch.undo()
    copy.unlink()
    _same_read(back, read_csv(str(path)))


@given(at=st.floats(0, 1, exclude_max=True), byte=st.integers(0, 255),
       cut=st.booleans())
@settings(max_examples=60, deadline=None)
def test_damaged_copy_never_raises(tmp_path_factory, at, byte, cut):
    path, meta, copy = _copy_pair(tmp_path_factory.mktemp("damage"))
    body = bytearray(copy.read_bytes())
    i = int(at * len(body))
    if cut:
        del body[i:]
    else:
        body[i] = byte
    copy.write_bytes(bytes(body))
    back = read_csv(str(path))
    copy.unlink()
    _same_read(back, read_csv(str(path)))


def test_rewritten_copy_is_used(tmp_path, monkeypatch):
    path, meta, copy = _copy_pair(tmp_path)
    _recast_copy(float, slice(None))(path, meta, copy)  # same key and values
    monkeypatch.setattr(table, "_parse_rows", _no_parse)
    back = read_csv(str(path))
    assert back.column("x").tolist() == [1.5, 0.0, 3.25]
    assert np.signbit(back.column("x")).tolist() == [False, False, False]


# Each malformed input of the tests above, as (CSV bytes, sidecar text or None)
MALFORMED = [
    (b"id,g,x\r\n1,lo,2\r\n2\r\n", None),
    (b'id,g,x\r\n1,lo,"a\r\nb"\r\n2,lo,3,4\r\n', None),
    (b"id,g,x\r\n1,lo,2\r\n\r\n", None),
    (b"id,g,x\r\n1,lo,2\r\n2,lo," + b"9" * (csv.field_size_limit() + 1) + b"\r\n", None),
    (b"id,g,x\r\n1,lo,2\r\n2,lo,3\xff\r\n", None),
    (b"id,g,y\r\n1,lo,2\r\n", None),
    (b"", None),
    (b"id,g,x\r\n1,lo,2\r\n2,lo,abc\r\n", None),
    (b"id,g,x\r\n1,lo,2\r\n2,mid,3\r\n", None),
    (b"id,g,x\r\n1,lo,2\r\nNA,lo,3\r\n", None),
    (b"id,g,x\r\n1,lo,2\r\n2,lo,3\r\n1,lo,4\r\n", None),
    (b"id,g,x\r\n" + b"".join(b"%d,lo,%d\r\n" % (r, r) for r in range(BLOCK_ROWS + 9))
     + b"1,lo,2.5x\r\n", None),
    (b"id,g,x\r\n1,lo,2\r\n", '{"shape": "wide", "columns": ['),
    (b"id,g,x\r\n1,lo,2\r\n", '{"columns": []}'),
    (b"id,g,x\r\n1,lo,2\r\n", json.dumps({"shape": "wide", "columns": [
        {"name": "id", "kind": "continuous", "role": "unit-id"},
        {"name": "g", "kind": "categorical", "role": "analysis", "levels": ["lo", "NA"]},
        {"name": "x", "kind": "continuous"}]})),
]


@pytest.mark.parametrize("body, sidecar", MALFORMED)
def test_stale_copy_keeps_bad_config(tmp_path, body, sidecar):
    path, meta, copy = _copy_pair(tmp_path)
    path.write_bytes(body)
    if sidecar is not None:
        meta.write_text(sidecar)
    errors = []
    for _ in ("with the stale copy", "without"):
        with pytest.raises(BadConfig) as err:
            read_csv(str(path))
        errors.append(str(err.value))
        copy.unlink(missing_ok=True)
    assert errors[0] == errors[1] and errors[0].startswith(str(tmp_path))


# -- vectorised reshape against the row loop it replaced ----------------------


def loop_long_to_wide(d, m):
    """Frozen row loop of reshape_long_to_wide: (values, mask) or the error."""
    carried = [c for c in d.columns
               if c.role in ("unit-id", "cluster-id") or c.name in m.time_fixed]
    unit = d.column(d.unit_col())
    times = d.column(d.time_col()).astype(int)
    units, first_rows = np.unique(unit, return_index=True)
    units = units[np.argsort(first_rows, kind="stable")]
    unit_pos = {u: i for i, u in enumerate(units)}
    time_pos = {t: i for i, t in enumerate(m.times)}
    n_fixed, n_s = len(carried), len(m.stubs)
    width = n_fixed + len(m.times) * n_s
    values = np.full((len(units), width), np.nan)
    mask = np.ones((len(units), width), dtype=bool)
    seen = set()
    carried_idx = [d.col_index(c.name) for c in carried]
    stub_idx = [d.col_index(s) for s in m.stubs]
    for r in range(d.n_rows):
        t = int(times[r])
        if t not in time_pos:
            return MalformedWideName(f"time value {t} not in reshape map")
        ui, ti = unit_pos[unit[r]], time_pos[t]
        if (ui, ti) in seen:
            return DuplicateTimePoint(f"unit {unit[r]:g} repeats time {t}")
        seen.add((ui, ti))
        values[ui, :n_fixed] = d.values[r, carried_idx]
        mask[ui, :n_fixed] = d.mask[r, carried_idx]
        dest = n_fixed + ti * n_s
        values[ui, dest:dest + n_s] = d.values[r, stub_idx]
        mask[ui, dest:dest + n_s] = d.mask[r, stub_idx]
    return values, mask


@st.composite
def messy_long_datasets(draw):
    """Shuffled, unbalanced long rows; time-fixed cells may disagree."""
    n = draw(st.integers(0, 25))
    cell = st.one_of(st.none(), st.integers(-3, 3).map(float))
    rows = [
        (draw(st.sampled_from([4.0, 1.0, 7.0, 2.0])),
         draw(st.sampled_from([3, 5, 7, 7, 5, 9] if draw(st.booleans()) else [3, 5, 7])),
         draw(cell), draw(cell), draw(cell))
        for _ in range(n)
    ]
    cols = [
        ColumnSpec("id", "continuous", "unit-id"),
        ColumnSpec("time", "continuous", "time"),
        ColumnSpec("base", "continuous", "analysis"),
        ColumnSpec("u", "continuous", "analysis"),
        ColumnSpec("v", "continuous", "analysis"),
    ]
    values = np.array([[np.nan if v is None else v for v in r] for r in rows],
                      dtype=float).reshape(n, 5)
    d = Dataset(cols, values, shape_kind="long", validate=False)
    times = tuple(draw(st.permutations([7, 3, 5])))
    return d, ReshapeMap(("u", "v"), times, ("base",))


@given(messy_long_datasets())
@settings(max_examples=200, deadline=None)
def test_reshape_matches_row_loop(case):
    d, m = case
    expected = loop_long_to_wide(d, m)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=f"^{expected}$"):
            reshape_long_to_wide(d, m)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = reshape_long_to_wide(d, m)
    np.testing.assert_array_equal(w.mask, expected[1])
    np.testing.assert_array_equal(w.values, np.where(expected[1], np.nan, expected[0]))


def test_duplicate_keys_rejected_on_validation():
    cols = [ColumnSpec("id", "continuous", "unit-id"),
            ColumnSpec("time", "continuous", "time")]
    ok = np.array([[1, 3], [2, 3], [1, 5], [2, 5]], dtype=float)
    Dataset(cols, ok, shape_kind="long")
    with pytest.raises(DuplicateTimePoint):
        Dataset(cols, np.vstack([ok, [[2, 3]]]), shape_kind="long")
    with pytest.raises(ValueError, match="unit-id not unique"):
        Dataset(cols[:1], np.array([[1.0], [2.0], [1.0]]), shape_kind="wide")
