"""Columnar dataset with an explicit missingness mask.

Values live in one float64 matrix. Continuous cells hold their value;
binary and categorical cells hold the 0-based index of their level.
Masked cells hold NaN and are flagged in a parallel boolean mask
(True = missing). Datasets are immutable: every operation returns a new
one, so sharing across threads is safe.
"""

from __future__ import annotations

import csv
import io
import json
import os
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadConfig,
    DuplicateTimePoint,
    MalformedWideName,
    MissingInFactor,
    UnknownColumn,
    UnknownLevel,
    UnknownStub,
)

KINDS = ("continuous", "binary", "categorical")
ROLES = ("unit-id", "cluster-id", "time", "analysis", "auxiliary")
KEY_ROLES = ("unit-id", "cluster-id", "time")


@dataclass(frozen=True)
class ColumnSpec:
    """Name, measurement kind and role of one column."""

    name: str
    kind: str
    role: str = "analysis"
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.kind == "binary":
            if self.levels is None:
                object.__setattr__(self, "levels", ("0", "1"))
            elif len(self.levels) != 2:
                raise ValueError(f"binary column {self.name!r} needs exactly 2 levels")
        elif self.kind == "categorical":
            if self.levels is None or len(self.levels) < 2:
                raise ValueError(f"categorical column {self.name!r} needs >= 2 levels")
        elif self.levels is not None:
            raise ValueError(f"continuous column {self.name!r} cannot declare levels")
        if self.levels is not None and len(set(self.levels)) != len(self.levels):
            raise ValueError(f"duplicate levels on {self.name!r}")
        if self.levels is not None and {"", MISSING_TOKEN} & set(self.levels):
            raise ValueError(
                f"level '' or {MISSING_TOKEN!r} on {self.name!r} would read back as missing"
            )

    @property
    def n_levels(self) -> int:
        return 0 if self.levels is None else len(self.levels)

    def level_index(self, label: str) -> int:
        try:
            return self.levels.index(label)
        except (ValueError, AttributeError):
            raise UnknownLevel(f"{label!r} is not a level of {self.name!r}") from None


@dataclass(frozen=True)
class ReshapeMap:
    """How long and wide layouts correspond.

    ``stubs`` are the time-varying variables (wide columns are named
    ``stub.t``), ``times`` the ordered wave values, ``time_fixed`` the
    unit-constant variables carried through unchanged.
    """

    stubs: tuple[str, ...]
    times: tuple[int, ...]
    time_fixed: tuple[str, ...] = ()
    time_col: str = "time"

    def __post_init__(self):
        object.__setattr__(self, "stubs", tuple(self.stubs))
        object.__setattr__(self, "times", tuple(int(t) for t in self.times))
        object.__setattr__(self, "time_fixed", tuple(self.time_fixed))
        if set(self.stubs) & set(self.time_fixed):
            raise ValueError("stubs and time-fixed names overlap")
        if len(set(self.times)) != len(self.times):
            raise ValueError("duplicate time values")

    def wide_name(self, stub: str, t: int) -> str:
        return f"{stub}.{t}"

    def parse_wide_name(self, name: str) -> tuple[str, int]:
        stem, dot, suffix = name.rpartition(".")
        if dot and stem in self.stubs:
            try:
                t = int(suffix)
            except ValueError:
                raise MalformedWideName(f"{name!r} has no integer time suffix") from None
            if t not in self.times:
                raise MalformedWideName(f"{name!r} uses undeclared time {t}")
            return stem, t
        if name in self.stubs:
            raise MalformedWideName(f"stub column {name!r} lacks a time suffix")
        raise UnknownStub(f"{name!r} is neither a declared stub.time nor time-fixed")


def _missing_key(columns, mask) -> tuple[ColumnSpec, int] | None:
    """The first unit-id, cluster-id or time column with a missing cell,
    and the row of its first such cell."""
    for j, c in enumerate(columns):
        if c.role in KEY_ROLES and mask[:, j].any():
            return c, int(np.argmax(mask[:, j]))
    return None


def _row_key(columns, shape_kind: str) -> list[int]:
    """Positions of the columns that must tell rows apart: the stacked
    ``Imputation`` index if present, the unit-id and, in long shape, the
    time column. Empty when the columns define no such key."""
    units = [j for j, c in enumerate(columns) if c.role == "unit-id"]
    times = [j for j, c in enumerate(columns) if c.role == "time"]
    if len(units) != 1 or len(times) > 1 or shape_kind not in ("wide", "long"):
        return []
    if shape_kind == "long":
        if not times:
            return []
        units += times
    # stacked multiply-imputed files repeat units once per imputation
    stacked = [j for j, c in enumerate(columns) if c.name == "Imputation"]
    return stacked + units


def _first_repeat(values: np.ndarray, key: list[int]) -> int | None:
    """The first row that agrees with an earlier row on every key column
    (NaN matches nothing), or None.

    Rows already in strictly increasing key order, the order ``impute``
    writes, hold no repeat; one vectorised pass over adjacent rows
    checks that before any sort. A NaN in the column that decides a
    pair fails the check, so that pair goes to the sort.
    """
    cols = [values[:, j] for j in key]
    later = np.zeros(max(len(values) - 1, 0), dtype=bool)
    for c in cols[::-1]:  # rows[i + 1] > rows[i] from this column on
        later = (c[1:] > c[:-1]) | ((c[1:] == c[:-1]) & later)
    if later.all():
        return None
    order = np.lexsort(cols[::-1])  # stable: equal keys stay in row order
    rows = values[np.ix_(order, key)]
    repeats = order[1:][(rows[1:] == rows[:-1]).all(axis=1)]
    return int(repeats.min()) if repeats.size else None


class Dataset:
    """Immutable typed table with missingness mask.

    ``values`` is (n_rows, n_cols) float64 with NaN at masked cells;
    ``mask`` is boolean with True marking a missing cell.
    """

    def __init__(
        self,
        columns: Sequence[ColumnSpec],
        values: np.ndarray,
        mask: np.ndarray | None = None,
        shape_kind: str = "long",
        validate: bool = True,
    ):
        columns = tuple(columns)
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(columns):
            raise ValueError("values must be (n_rows, n_cols)")
        if mask is None:
            mask = np.isnan(values)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != values.shape:
            raise ValueError("mask shape mismatch")
        values = values.copy()
        values[mask] = np.nan
        values.setflags(write=False)
        mask = mask.copy()
        mask.setflags(write=False)
        if shape_kind not in ("wide", "long"):
            raise ValueError("shape_kind must be 'wide' or 'long'")
        self.columns = columns
        self.values = values
        self.mask = mask
        self.shape_kind = shape_kind
        self._index = {c.name: i for i, c in enumerate(columns)}
        if len(self._index) != len(columns):
            raise ValueError("duplicate column names")
        if validate:
            self._validate()

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        columns: Sequence[ColumnSpec],
        data: Mapping[str, Sequence],
        shape_kind: str = "long",
    ) -> "Dataset":
        """Assemble from per-column sequences; NaN marks missing."""
        cols = tuple(columns)
        n = len(next(iter(data.values()))) if data else 0
        values = np.full((n, len(cols)), np.nan)
        for j, c in enumerate(cols):
            arr = np.asarray(data[c.name], dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"column {c.name!r} has wrong length")
            values[:, j] = arr
        return cls(cols, values, shape_kind=shape_kind)

    def _validate(self):
        unit_cols = [c for c in self.columns if c.role == "unit-id"]
        if len(unit_cols) != 1:
            raise ValueError("exactly one unit-id column required")
        if sum(c.role == "time" for c in self.columns) > 1:
            raise ValueError("at most one time column allowed")
        hole = _missing_key(self.columns, self.mask)
        if hole:
            c, row = hole
            raise BadConfig(
                f"{c.role} column {c.name!r} has a missing cell (row {row + 1})"
            )
        for c in self.columns:
            j = self._index[c.name]
            if c.levels is not None:
                vals = self.values[~self.mask[:, j], j]
                if vals.size and (
                    (vals != np.round(vals)).any()
                    or vals.min() < 0
                    or vals.max() > len(c.levels) - 1
                ):
                    raise UnknownLevel(f"out-of-range level code in {c.name!r}")
        key = _row_key(self.columns, self.shape_kind)
        if key and _first_repeat(self.values, key) is not None:
            if self.shape_kind == "wide":
                raise ValueError("unit-id not unique in wide shape")
            raise DuplicateTimePoint("duplicate (unit, time) rows")

    # -- accessors --------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def col_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def col_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownColumn(f"no column named {name!r}") from None

    def spec(self, name: str) -> ColumnSpec:
        return self.columns[self.col_index(name)]

    def column(self, name: str) -> np.ndarray:
        """Values of one column (read-only view), NaN where masked."""
        return self.values[:, self.col_index(name)]

    def column_mask(self, name: str) -> np.ndarray:
        return self.mask[:, self.col_index(name)]

    def unit_col(self) -> str:
        return next(c.name for c in self.columns if c.role == "unit-id")

    def time_col(self) -> str | None:
        return next((c.name for c in self.columns if c.role == "time"), None)

    # -- derivation -------------------------------------------------------

    def take(self, rows: np.ndarray) -> "Dataset":
        return Dataset(
            self.columns,
            self.values[rows],
            self.mask[rows],
            shape_kind=self.shape_kind,
            validate=False,
        )

    def with_columns(
        self,
        columns: Sequence[ColumnSpec],
        values: np.ndarray,
        mask: np.ndarray | None = None,
        shape_kind: str | None = None,
        validate: bool = False,
    ) -> "Dataset":
        return Dataset(
            columns,
            values,
            mask,
            shape_kind=shape_kind or self.shape_kind,
            validate=validate,
        )

    def completed(self, values: np.ndarray) -> "Dataset":
        """Same schema with every cell filled (all-false mask)."""
        if np.isnan(values).any():
            raise ValueError("completed values still contain NaN")
        return Dataset(
            self.columns,
            values,
            np.zeros_like(self.mask),
            shape_kind=self.shape_kind,
            validate=False,
        )

    def equals(self, other: "Dataset") -> bool:
        if self.columns != other.columns or self.shape_kind != other.shape_kind:
            return False
        if self.values.shape != other.values.shape:
            return False
        if (self.mask != other.mask).any():
            return False
        a, b = self.values[~self.mask], other.values[~other.mask]
        return bool(np.array_equal(a, b))


# ---------------------------------------------------------------------------
# reshaping
# ---------------------------------------------------------------------------


def _classify_wide_columns(d: Dataset, m: ReshapeMap):
    """Split wide columns into carried-through and (stub, time) ones."""
    fixed, varying = [], []
    carried = set(m.time_fixed) | {
        c.name for c in d.columns if c.role in ("unit-id", "cluster-id")
    }
    for c in d.columns:
        if c.name in carried:
            fixed.append(c.name)
        else:
            varying.append((c.name, *m.parse_wide_name(c.name)))
    return fixed, varying


def reshape_long_to_wide(d: Dataset, m: ReshapeMap) -> Dataset:
    """One row per unit; stub columns become ``stub.t`` per wave.

    Units missing an entire wave row come out with every cell of that
    wave masked, so mildly unbalanced input is representable in wide
    form (a warning is emitted because wide-format imputers assume
    aligned waves).
    """
    if d.shape_kind != "long":
        raise ValueError("input is not long-shaped")
    tcol = d.time_col()
    if tcol is None:
        raise ValueError("long dataset needs a time column")
    carried = [
        c
        for c in d.columns
        if c.role in ("unit-id", "cluster-id") or c.name in m.time_fixed
    ]
    for c in d.columns:
        if c.name == tcol or c in carried:
            continue
        if c.name not in m.stubs:
            raise UnknownStub(f"time-varying column {c.name!r} not in reshape map")
    for s in m.stubs:
        d.col_index(s)  # raises UnknownColumn for bad maps

    unit = d.column(d.unit_col())
    times = d.column(tcol).astype(int)
    # units in order of first appearance; ``ui`` is each row's unit position
    units, first_rows, code = np.unique(unit, return_index=True, return_inverse=True)
    order = np.argsort(first_rows, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ui = rank[code]
    n_u, n_t, n_s = len(units), len(m.times), len(m.stubs)

    # the first row with an undeclared time or a repeated (unit, time)
    # cell stops the reshape, as a row-by-row pass would
    declared = np.isin(times, m.times)
    stop = int(np.argmin(declared)) if not declared.all() else d.n_rows
    wave_order = np.argsort(m.times)
    ti = wave_order[np.searchsorted(np.asarray(m.times)[wave_order], times[:stop])]
    _, first = np.unique(ui[:stop] * n_t + ti, return_index=True)
    if len(first) < stop:
        repeat = np.ones(stop, dtype=bool)
        repeat[first] = False
        r = int(np.argmax(repeat))
        raise DuplicateTimePoint(f"unit {unit[r]:g} repeats time {times[r]}")
    if stop < d.n_rows:
        raise MalformedWideName(f"time value {times[stop]} not in reshape map")

    out_cols: list[ColumnSpec] = [
        ColumnSpec(c.name, c.kind, c.role, c.levels) for c in carried
    ]
    stub_specs = {s: d.spec(s) for s in m.stubs}
    for t in m.times:
        for s in m.stubs:
            sp = stub_specs[s]
            out_cols.append(ColumnSpec(m.wide_name(s, t), sp.kind, sp.role, sp.levels))
    values = np.full((n_u, len(out_cols)), np.nan)
    mask = np.ones((n_u, len(out_cols)), dtype=bool)

    # carried columns come from each unit's last row
    _, last_from_end = np.unique(unit[::-1], return_index=True)
    last = (d.n_rows - 1 - last_from_end)[order]
    carried_idx = [d.col_index(c.name) for c in carried]
    n_fixed = len(carried)
    values[:, :n_fixed] = d.values[np.ix_(last, carried_idx)]
    mask[:, :n_fixed] = d.mask[np.ix_(last, carried_idx)]
    stub_idx = [d.col_index(s) for s in m.stubs]
    dest = n_fixed + ti[:, None] * n_s + np.arange(n_s)
    values[ui[:, None], dest] = d.values[:, stub_idx]
    mask[ui[:, None], dest] = d.mask[:, stub_idx]

    if d.n_rows < n_u * n_t:
        warnings.warn(
            "unbalanced long input: absent waves materialized as missing cells",
            stacklevel=2,
        )
    return Dataset(out_cols, values, mask, shape_kind="wide")


def reshape_wide_to_long(d: Dataset, m: ReshapeMap) -> Dataset:
    """Inverse of :func:`reshape_long_to_wide` on balanced data.

    Output column order is canonical: carried-through columns in wide
    order, then the time column, then stubs in map order.
    """
    if d.shape_kind != "wide":
        raise ValueError("input is not wide-shaped")
    fixed_names, varying = _classify_wide_columns(d, m)
    by_cell = {(s, t): name for name, s, t in varying}
    for s in m.stubs:
        for t in m.times:
            if (s, t) not in by_cell:
                raise UnknownStub(f"wide input lacks column {m.wide_name(s, t)!r}")

    out_cols = [d.spec(nm) for nm in fixed_names]
    out_cols.append(ColumnSpec(m.time_col, "continuous", "time"))
    for s in m.stubs:
        sp = d.spec(m.wide_name(s, m.times[0]))
        out_cols.append(ColumnSpec(s, sp.kind, sp.role, sp.levels))

    n_u = d.n_rows
    n = n_u * len(m.times)
    values = np.full((n, len(out_cols)), np.nan)
    mask = np.zeros((n, len(out_cols)), dtype=bool)
    fixed_idx = [d.col_index(nm) for nm in fixed_names]
    k = len(fixed_names)
    for ti, t in enumerate(m.times):
        rows = slice(ti, n, len(m.times))
        values[rows, :k] = d.values[:, fixed_idx]
        mask[rows, :k] = d.mask[:, fixed_idx]
        values[rows, k] = t
        for sj, s in enumerate(m.stubs):
            src = d.col_index(by_cell[(s, t)])
            values[rows, k + 1 + sj] = d.values[:, src]
            mask[rows, k + 1 + sj] = d.mask[:, src]
    return Dataset(out_cols, values, mask, shape_kind="long")


# ---------------------------------------------------------------------------
# column surgery
# ---------------------------------------------------------------------------


def dummy_expand(d: Dataset, col: str, drop_first: bool = True) -> Dataset:
    """Replace a discrete column by 0/1 indicator columns.

    Categorical columns use their declared level order; id-like numeric
    columns use sorted observed values. With ``drop_first`` the first
    level becomes the all-zero reference row.
    """
    j = d.col_index(col)
    sp = d.columns[j]
    if d.mask[:, j].any():
        raise MissingInFactor(f"{col!r} has masked cells")
    x = d.values[:, j]
    if sp.levels is not None:
        codes = x.astype(int)
        labels = list(sp.levels)
    else:
        uniq = np.unique(x)
        codes = np.searchsorted(uniq, x)
        labels = [f"{v:g}" for v in uniq]
    start = 1 if drop_first else 0
    new_specs = [
        ColumnSpec(f"{col}_{labels[k]}", "binary", "auxiliary")
        for k in range(start, len(labels))
    ]
    ind = np.zeros((d.n_rows, len(new_specs)))
    for out_k, k in enumerate(range(start, len(labels))):
        ind[:, out_k] = codes == k

    cols = list(d.columns[:j]) + new_specs + list(d.columns[j + 1 :])
    values = np.concatenate(
        [d.values[:, :j], ind, d.values[:, j + 1 :]], axis=1
    )
    mask = np.concatenate(
        [d.mask[:, :j], np.zeros_like(ind, dtype=bool), d.mask[:, j + 1 :]], axis=1
    )
    return d.with_columns(cols, values, mask)


def available_case_filter(d: Dataset, model_vars: Sequence[str]) -> Dataset:
    """Keep exactly the rows fully observed on ``model_vars``."""
    idx = [d.col_index(v) for v in model_vars]
    keep = ~d.mask[:, idx].any(axis=1)
    return d.take(keep)


def incomplete_fraction(
    d: Dataset, shape_kind: str, m: ReshapeMap | None = None
) -> float:
    """Fraction of records with >= 1 masked analysis-variable cell.

    When the requested shape differs from the dataset's, a reshape map
    is required to recount in the other layout.
    """
    if d.shape_kind != shape_kind:
        if m is None:
            raise ValueError("reshape map needed to change record shape")
        d = (
            reshape_long_to_wide(d, m)
            if shape_kind == "wide"
            else reshape_wide_to_long(d, m)
        )
    idx = [i for i, c in enumerate(d.columns) if c.role == "analysis"]
    if not idx or d.n_rows == 0:
        return 0.0
    return float(d.mask[:, idx].any(axis=1).mean())


# ---------------------------------------------------------------------------
# CSV + sidecar I/O
# ---------------------------------------------------------------------------

MISSING_TOKEN = "NA"
# Rows per block of the CSV codec: bounds its working memory on long stacks.
BLOCK_ROWS = 4096


def csv_fields(labels: Sequence[str]) -> list[str]:
    """Each label as ``csv.writer`` writes it (labels are never empty)."""
    buf = io.StringIO()
    w = csv.writer(buf)
    out = []
    for label in labels:
        buf.seek(0)
        buf.truncate()
        w.writerow([label])
        out.append(buf.getvalue()[:-2])
    return out


def _column_texts(spec: ColumnSpec, x: np.ndarray, masked: np.ndarray):
    """One column's cell texts followed by ``NA``, the value each text
    reads back as, and each cell's index into the texts, in the smallest
    unsigned dtype that holds it.

    Each distinct unmasked value is formatted once. A level column's
    values are its level codes, written as csv-quoted labels. Other
    columns write integer-valued floats below 1e15 as ints (so -0.0 and
    0.0 both read ``0``), the rest by ``repr``.
    """
    distinct, inverse = np.unique(x[~masked], return_inverse=True)
    index = np.full(len(x), len(distinct), dtype=np.min_scalar_type(len(distinct)))
    index[~masked] = inverse
    texts = np.empty(len(distinct) + 1, dtype=object)
    if spec.levels is not None:
        labels = csv_fields(spec.levels)
        texts[:-1] = [labels[c] for c in distinct.astype(int).tolist()]
    else:
        whole = (distinct == np.trunc(distinct)) & (np.abs(distinct) < 1e15)
        texts[:-1][whole] = list(map(str, distinct[whole].astype(np.int64).tolist()))
        texts[:-1][~whole] = list(map(repr, distinct[~whole].tolist()))
    texts[-1] = MISSING_TOKEN
    return texts, np.append(distinct + 0.0, np.nan), index


def sidecar_path(csv_path: str) -> str:
    stem, _ = os.path.splitext(csv_path)
    return stem + ".meta.json"


def copy_path(csv_path: str) -> str:
    """Where :func:`write_csv` puts the binary copy of a CSV's values."""
    stem, _ = os.path.splitext(csv_path)
    return stem + ".values.npz"


# Part of every copy's key: change it whenever the text a value is written
# as, or the value a text is read as, changes.
COPY_CODEC = b"longmi csv codec 1"


def _copy_key(path: str, meta_path: str) -> bytes:
    """SHA-256 over the codec tag and the bytes of the CSV and its sidecar,
    read 1 MiB at a time so that keying a long stack holds no copy of it."""
    import hashlib  # not at import time: start-up stays flat

    key = hashlib.sha256(COPY_CODEC)
    for p in (path, meta_path):
        key.update(os.path.getsize(p).to_bytes(8, "little"))
        with open(p, "rb") as fh:
            while chunk := fh.read(1 << 20):
                key.update(chunk)
    return key.digest()


def write_csv(d: Dataset, path: str) -> None:
    """Write data plus a JSON metadata sidecar, atomically, and then the
    binary copy that :func:`read_csv` may use instead of parsing.

    Masked cells are written as ``NA``, levels by label, integer-valued
    floats below 1e15 as ints, other floats by ``repr``. Each column's
    distinct values are formatted once, and each cell's text found once
    by ``np.unique``; rows are then assembled from those texts in blocks
    of ``BLOCK_ROWS``.

    The copy (``<stem>.values.npz``) holds ``values``, the float matrix
    that parsing the CSV gives (each text's value, so -0.0 is stored as
    0 and a masked cell as NaN), streamed block by block beside the
    text, and ``key``, the :func:`_copy_key` of the CSV and sidecar.
    """
    import zipfile

    columns = [
        _column_texts(c, d.values[:, j], d.mask[:, j]) for j, c in enumerate(d.columns)
    ]
    tmp, copy_tmp = path + ".tmp", copy_path(path) + ".tmp"
    with zipfile.ZipFile(copy_tmp, "w") as copy:
        with open(tmp, "w", newline="") as fh, copy.open(
            "values.npy", "w", force_zip64=True
        ) as npy:
            np.lib.format.write_array_header_1_0(npy, {
                "descr": np.lib.format.dtype_to_descr(np.dtype(float)),
                "fortran_order": False,
                "shape": d.values.shape,
            })
            csv.writer(fh).writerow(d.col_names)
            for start in range(0, d.n_rows, BLOCK_ROWS):
                block = slice(start, start + BLOCK_ROWS)
                cols = [texts[index[block]].tolist() for texts, _, index in columns]
                fh.write("\r\n".join(map(",".join, zip(*cols))))
                fh.write("\r\n")
                back = [parsed[index[block]] for _, parsed, index in columns]
                npy.write(np.column_stack(back).tobytes())
        os.replace(tmp, path)
        meta = {
            "shape": d.shape_kind,
            "columns": [
                {"name": c.name, "kind": c.kind, "role": c.role,
                 "levels": list(c.levels) if c.levels else None}
                for c in d.columns
            ],
        }
        tmp = sidecar_path(path) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, sidecar_path(path))
        key = np.frombuffer(_copy_key(path, sidecar_path(path)), dtype=np.uint8)
        with copy.open("key.npy", "w") as npy:
            np.lib.format.write_array(npy, key)
    os.replace(copy_tmp, copy_path(path))


def _read_copy(path: str, meta_path: str, n_cols: int) -> np.ndarray | None:
    """The values that parsing ``path`` gives, from its binary copy.

    None, so that the caller parses, unless the copy opens and its key
    matches ``path`` and ``meta_path`` as they are now and its values
    are an (n, ``n_cols``) float64 matrix. A missing, short or corrupt
    copy is no copy, and this never raises: unzipping (which checks each
    member's CRC-32) and decoding damaged bytes fail in many ways
    (``BadZipFile``, ``RuntimeError`` for a set encryption flag,
    ``NotImplementedError`` or ``OSError`` for a changed compression
    method, ``ValueError``, ``EOFError``, ``KeyError``...), and every
    one of them means the CSV is parsed instead.
    """
    try:
        with np.load(copy_path(path), allow_pickle=False) as copy:
            key = copy["key"]
            if key.dtype != np.uint8 or key.tobytes() != _copy_key(path, meta_path):
                return None
            values = copy["values"]
    except Exception:  # noqa: BLE001 - the copy is optional; the parse is the fallback
        return None
    if values.dtype != np.float64 or values.ndim != 2 or values.shape[1] != n_cols:
        return None
    return values


def _parse_floats(tokens: list[str]) -> np.ndarray:
    """Floats from tokens; ``NA`` and empty (after stripping) are NaN.

    When the tokens do not parse as they are, exact ``NA`` and empty
    tokens are replaced first; the tokens are stripped only when that
    still fails.
    """
    try:
        return np.array(tokens, dtype=float)
    except ValueError:
        pass
    try:
        return np.array(
            ["nan" if t == MISSING_TOKEN or not t else t for t in tokens], dtype=float
        )
    except ValueError:
        text = np.char.strip(np.array(tokens, dtype=str))
        missing = (text == MISSING_TOKEN) | (text == "")
        return np.where(missing, "nan", text).astype(float)


def _level_parser(spec: ColumnSpec):
    """Parser from labels to level codes; ``NA`` and empty are NaN.

    A token is looked up as written, then stripped; a stripped token
    that names no level raises ``UnknownLevel``.
    """
    codes = {label: float(i) for i, label in enumerate(spec.levels)}
    codes.update({MISSING_TOKEN: np.nan, "": np.nan})

    def code(token: str) -> float:
        t = token if token in codes else token.strip()
        return codes[t] if t in codes else spec.level_index(t)

    def parse(tokens: list[str]) -> np.ndarray:
        table = {t: code(t) for t in dict.fromkeys(tokens)}
        return np.array(list(map(table.__getitem__, tokens)), dtype=float)

    return parse


def _parses(parse, token: str) -> bool:
    try:
        parse([token])
    except (ValueError, UnknownLevel):
        return False
    return True


def _line_of(path: str, record: int) -> int:
    """Line on which data record ``record`` (0-based, after the header) ends."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for _ in islice(reader, record + 2):
            pass
        return reader.line_num


def _undecodable_line(path: str, err: UnicodeDecodeError) -> int:
    """Line holding the first byte that ``err.encoding`` cannot decode."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode(err.encoding)
    except UnicodeDecodeError as e:
        return data.count(b"\n", 0, e.start) + 1
    return 1


def _parse_rows(path: str, reader, ordered: list[ColumnSpec]) -> np.ndarray:
    """The rows left in ``reader``, parsed in blocks of ``BLOCK_ROWS``, one
    column at a time; a row of the wrong width or a token its column
    cannot parse raises ``BadConfig`` naming the line."""
    k = len(ordered)
    parsers = [_parse_floats if s.levels is None else _level_parser(s) for s in ordered]
    blocks = []
    done = 0
    while rows := list(islice(reader, BLOCK_ROWS)):
        wrong = np.fromiter(map(len, rows), int, len(rows)) != k
        if wrong.any():
            bad = int(np.argmax(wrong))
            raise BadConfig(
                f"{path}, line {_line_of(path, done + bad)}: "
                f"{len(rows[bad])} fields, the header has {k}"
            )
        flat = list(chain.from_iterable(rows))
        block = np.empty((len(rows), k))
        for j, (spec, parse) in enumerate(zip(ordered, parsers)):
            tokens = flat[j::k]
            try:
                block[:, j] = parse(tokens)
            except (ValueError, UnknownLevel):
                bad = [_parses(parse, t) for t in tokens].index(False)
                what = "a number" if spec.levels is None else "one of its levels"
                raise BadConfig(
                    f"{path}, line {_line_of(path, done + bad)}: "
                    f"{tokens[bad]!r} in column {spec.name!r} is not {what}"
                ) from None
        blocks.append(block)
        done += len(rows)
    return np.concatenate(blocks) if blocks else np.empty((0, k))


def read_csv(path: str, meta_path: str | None = None) -> Dataset:
    """Read a CSV written by :func:`write_csv` (empty cell == NA).

    When the binary copy beside the CSV matches it and its sidecar (see
    :func:`_read_copy`), its values stand in for the parse; otherwise
    rows are parsed in blocks of ``BLOCK_ROWS``, one column at a time.
    Every check but the row parse runs either way. A
    missing or invalid sidecar, a header that does not match it, a row
    with the wrong number of fields, a token that is not a number or not
    a level of its column, a missing key cell, a row repeating an
    earlier row's key (unit-id, plus time in long shape and the
    ``Imputation`` index of a stack), a field past ``csv``'s size limit
    and bytes the text encoding cannot decode raise ``BadConfig`` naming
    the file and line.
    """
    meta_path = meta_path or sidecar_path(path)
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        specs = [
            ColumnSpec(
                c["name"], c["kind"], c["role"],
                tuple(c["levels"]) if c.get("levels") else None,
            )
            for c in meta["columns"]
        ]
        shape = meta["shape"]
    except FileNotFoundError:
        raise BadConfig(f"{path}: metadata sidecar {meta_path} not found") from None
    except (KeyError, TypeError, ValueError) as e:  # ValueError covers bad JSON
        raise BadConfig(f"{meta_path}: invalid sidecar: {e!r}") from None
    by_name = {s.name: s for s in specs}
    cached = _read_copy(path, meta_path, len(specs))
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if sorted(header) != sorted(by_name):
                raise BadConfig(
                    f"{path}, line 1: header {header} does not match the "
                    f"columns {list(by_name)} of {meta_path}"
                )
            ordered = [by_name[h] for h in header]
            values = _parse_rows(path, reader, ordered) if cached is None else cached
    except csv.Error as e:
        raise BadConfig(f"{path}, line {reader.line_num}: {e}") from None
    except UnicodeDecodeError as e:
        raise BadConfig(
            f"{path}, line {_undecodable_line(path, e)}: not {e.encoding} text"
        ) from None
    hole = _missing_key(ordered, np.isnan(values))
    if hole:
        c, row = hole
        raise BadConfig(
            f"{path}, line {_line_of(path, row)}: {c.role} column {c.name!r} "
            "has a missing cell"
        )
    try:
        return Dataset(ordered, values, shape_kind=shape)
    except (DuplicateTimePoint, ValueError):
        key = _row_key(ordered, shape)
        row = _first_repeat(values, key) if key else None
        if row is None:
            raise
        names = ", ".join(repr(ordered[j].name) for j in key)
        raise BadConfig(
            f"{path}, line {_line_of(path, row)}: the key columns {names} "
            "repeat an earlier row"
        ) from None
