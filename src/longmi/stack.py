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
    """The original dataset and its m completed copies, held once.

    The stack also reads as its stacked form, one column at a time
    (``columns``, ``n_rows``, ``shape_kind``, ``column`` and
    ``column_mask``, as on a :class:`Dataset`), so that ``write_csv``
    writes it from its parts without building the stacked matrix.
    :meth:`from_stacked` splits a stacked dataset into parts that are
    read-only views of its arrays.
    """

    original: Dataset
    imputations: list[Dataset]

    @property
    def m(self) -> int:
        return len(self.imputations)

    # -- the stacked form, column by column -------------------------------

    @property
    def columns(self) -> tuple[ColumnSpec, ...]:
        if any(d.columns != self.original.columns for d in self.imputations):
            raise ValueError("imputations must share the original schema")
        return (ColumnSpec(IMPUTATION_COL, "continuous", "auxiliary"),
                *self.original.columns)

    @property
    def shape_kind(self) -> str:
        return self.original.shape_kind

    @property
    def n_rows(self) -> int:
        """Rows of the stacked form: the original's and every imputation's."""
        return sum(d.n_rows for d in self._parts())

    def _parts(self) -> list[Dataset]:
        return [self.original, *self.imputations]

    def column(self, name: str) -> np.ndarray:
        """One column of the stacked form, as a new array."""
        parts = self._parts()
        if name == IMPUTATION_COL:
            return np.repeat(np.arange(len(parts), dtype=float),
                             [d.n_rows for d in parts])
        return np.concatenate([d.column(name) for d in parts])

    def column_mask(self, name: str) -> np.ndarray:
        if name == IMPUTATION_COL:
            return np.zeros(self.n_rows, dtype=bool)
        return np.concatenate([d.column_mask(name) for d in self._parts()])

    def to_stacked(self) -> Dataset:
        """One dataset with a leading Imputation column (0 = original)."""
        cols = self.columns
        return Dataset(
            cols,
            np.column_stack([self.column(c.name) for c in cols]),
            np.column_stack([self.column_mask(c.name) for c in cols]),
            shape_kind=self.shape_kind,
            validate=False,
        )

    @classmethod
    def from_stacked(cls, d: Dataset, source: str = "stacked input") -> "ImputedStack":
        """Split a stacked dataset by its Imputation tags, which must be
        the whole numbers 0..m, each present; ``source`` names the input
        in the error otherwise.

        Each part is a read-only view of the stacked arrays when the tags
        are grouped in order and the Imputation column comes first, as
        ``write_csv`` writes a stack. Any other layout costs one copy that
        puts the rows in that order (keeping each imputation's rows in
        file order) and the Imputation column first.
        """
        tags = d.column(IMPUTATION_COL)
        present = np.unique(tags)
        if not np.array_equal(present, np.arange(present.size)) or not present.size:
            shown = ", ".join(f"{t:g}" for t in present[:12])
            raise BadConfig(
                f"{source}: stacked file must carry contiguous Imputation tags "
                f"0..m (0 = original); found [{shown}"
                f"{', ...' if present.size > 12 else ''}]"
            )
        j = d.col_index(IMPUTATION_COL)
        values, mask = d.values, d.mask
        if j != 0 or (tags[1:] < tags[:-1]).any():
            rows = np.argsort(tags, kind="stable")
            tag_first = np.r_[j, np.delete(np.arange(len(d.columns)), j)]
            cells = np.ix_(rows, tag_first)
            values, mask = values[cells], mask[cells]
            values.setflags(write=False)  # so the parts keep views of them
            mask.setflags(write=False)
        cols = [c for c in d.columns if c.name != IMPUTATION_COL]
        stops = np.cumsum(np.bincount(tags.astype(int))).tolist()
        parts = [
            Dataset(cols, values[start:stop, 1:], mask[start:stop, 1:],
                    shape_kind=d.shape_kind, validate=False)
            for start, stop in zip([0, *stops], stops)
        ]
        return cls(parts[0], parts[1:])
