"""Container for multiply-imputed datasets.

The stacked form carries an ``Imputation`` index column: 0 is the
original (still-masked) data, 1..m are the completed copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    def from_stacked(cls, d: Dataset) -> "ImputedStack":
        tags = d.column(IMPUTATION_COL).astype(int)
        present = set(np.unique(tags))
        if present != set(range(int(tags.max()) + 1)):
            raise ValueError(
                "stacked file must carry contiguous Imputation tags 0..m "
                f"(0 = original); found {sorted(present)}"
            )
        j = d.col_index(IMPUTATION_COL)
        cols = [c for c in d.columns if c.name != IMPUTATION_COL]
        keep = [i for i in range(len(d.columns)) if i != j]
        parts = []
        for tag in range(int(tags.max()) + 1):
            rows = tags == tag
            parts.append(
                Dataset(
                    cols,
                    d.values[np.ix_(rows, keep)],
                    d.mask[np.ix_(rows, keep)],
                    shape_kind=d.shape_kind,
                    validate=False,
                )
            )
        return cls(parts[0], parts[1:])
