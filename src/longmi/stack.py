"""Container for multiply-imputed datasets.

The stacked form carries an ``Imputation`` index column: 0 is the
original (still-masked) data, 1..m are the completed copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadConfig
from .table import ColumnSpec, Dataset

IMPUTATION_COL = "Imputation"


@dataclass
class ImputedStack:
    original: Dataset
    imputations: list[Dataset]

    @property
    def m(self) -> int:
        return len(self.imputations)

    def to_stacked(self) -> Dataset:
        """One dataset with a leading Imputation column (0 = original)."""
        parts = [self.original] + self.imputations
        if any(d.columns != self.original.columns for d in self.imputations):
            raise ValueError("imputations must share the original schema")
        cols = [ColumnSpec(IMPUTATION_COL, "continuous", "auxiliary")]
        cols += list(self.original.columns)
        rows = sum(d.n_rows for d in parts)
        values = np.empty((rows, len(cols)))
        mask = np.zeros((rows, len(cols)), dtype=bool)
        start = 0
        for i, d in enumerate(parts):
            stop = start + d.n_rows
            values[start:stop, 0] = i
            values[start:stop, 1:] = d.values
            mask[start:stop, 1:] = d.mask
            start = stop
        return Dataset(
            cols, values, mask, shape_kind=self.original.shape_kind, validate=False
        )

    @classmethod
    def from_stacked(cls, d: Dataset, source: str = "stacked input") -> "ImputedStack":
        """Split a stacked dataset by its Imputation tags, which must be
        the whole numbers 0..m, each present; ``source`` names the input
        in the error otherwise."""
        tags = d.column(IMPUTATION_COL)
        present = np.unique(tags)
        if not np.array_equal(present, np.arange(present.size)) or not present.size:
            shown = ", ".join(f"{t:g}" for t in present[:12])
            raise BadConfig(
                f"{source}: stacked file must carry contiguous Imputation tags "
                f"0..m (0 = original); found [{shown}"
                f"{', ...' if present.size > 12 else ''}]"
            )
        # one stable sort keeps each imputation's rows in file order
        order = np.argsort(tags, kind="stable")
        j = d.col_index(IMPUTATION_COL)
        cols = [c for c in d.columns if c.name != IMPUTATION_COL]
        parts = [
            Dataset(cols, np.delete(d.values[rows], j, axis=1),
                    np.delete(d.mask[rows], j, axis=1), shape_kind=d.shape_kind,
                    validate=False)
            for rows in np.split(order, np.cumsum(np.bincount(tags.astype(int)))[:-1])
        ]
        return cls(parts[0], parts[1:])
