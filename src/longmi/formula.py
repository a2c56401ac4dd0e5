"""Model-formula mini-language and design-matrix construction.

Grammar (whitespace-insensitive)::

    formula  := response "~" term ("+" term)* ("+" random)?
    term     := name | "factor(" name ")"
    random   := "(" "1" "|" group ("/" group)? ")"

``factor(x)`` expands a discrete column into reference-coded
indicators; a bare binary column enters as its 0/1 code. The random
part declares 1 or 2 nested intercept groupings, outermost first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import IncompleteModelData, ParseError, UnknownColumn
from .table import Dataset

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


@dataclass(frozen=True)
class Term:
    column: str
    is_factor: bool = False

    def __str__(self):
        return f"factor({self.column})" if self.is_factor else self.column


@dataclass(frozen=True)
class ModelFormula:
    response: str
    fixed: tuple[Term, ...]
    random: tuple[str, ...] = ()  # grouping columns, outermost first

    def __str__(self):
        rhs = " + ".join(str(t) for t in self.fixed)
        if self.random:
            rhs += f" + (1 | {'/'.join(self.random)})"
        return f"{self.response} ~ {rhs}"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise ParseError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def name(self) -> str:
        self.skip_ws()
        m = _NAME.match(self.text, self.pos)
        if not m:
            raise ParseError("expected a name", self.pos)
        self.pos = m.end()
        return m.group(0)

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_formula(text: str) -> ModelFormula:
    s = _Scanner(text)
    response = s.name()
    s.expect("~")
    fixed: list[Term] = []
    random: tuple[str, ...] = ()
    while True:
        if s.peek() == "(":
            pos = s.pos
            s.expect("(")
            s.expect("1")
            s.expect("|")
            groups = [s.name()]
            if s.peek() == "/":
                s.expect("/")
                groups.append(s.name())
            s.expect(")")
            if random:
                raise ParseError("only one random part allowed", pos)
            random = tuple(groups)
        else:
            nm = s.name()
            if nm == "factor":
                s.expect("(")
                fixed.append(Term(s.name(), is_factor=True))
                s.expect(")")
            else:
                fixed.append(Term(nm))
        if s.done():
            break
        s.expect("+")
        if s.done():
            raise ParseError("trailing '+'", s.pos)
    if any(t.column == response for t in fixed):
        raise ParseError(f"response {response!r} reused as a fixed term", 0)
    return ModelFormula(response, tuple(fixed), random)


def build_design(
    d: Dataset, formula: ModelFormula
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Response vector, fixed-effect matrix (with intercept) and names."""
    names = ["(Intercept)"]
    cols = [np.ones(d.n_rows)]
    used = [formula.response] + [t.column for t in formula.fixed]
    for v in used + list(formula.random):
        d.col_index(v)  # raises UnknownColumn
    for g in formula.random:
        if d.column_mask(g).any():
            raise IncompleteModelData(f"grouping column {g!r} has missing cells")
    bad = [v for v in used if d.column_mask(v).any()]
    if bad:
        raise IncompleteModelData(f"masked cells in model variables {bad}")
    for t in formula.fixed:
        spec = d.spec(t.column)
        x = d.column(t.column)
        if t.is_factor:
            if spec.levels is None:
                raise UnknownColumn(f"factor() needs a discrete column, got {t.column!r}")
            for k in range(1, len(spec.levels)):
                names.append(f"{t.column}_{spec.levels[k]}")
                cols.append((x == k).astype(float))
        else:
            names.append(t.column)
            cols.append(x.astype(float))
    y = d.column(formula.response).astype(float)
    return y, np.column_stack(cols), names


def grouping_codes(d: Dataset, formula: ModelFormula) -> list[np.ndarray]:
    """Integer codes per random level, outermost first; inner levels are
    coded within the outer grouping so reused labels still nest."""
    codes: list[np.ndarray] = []
    for g in formula.random:
        values, c = np.unique(d.column(g), return_inverse=True)
        if codes:
            # rank (outer code, inner value) pairs by a 1-D pair key
            _, c = np.unique(codes[-1] * len(values) + c, return_inverse=True)
        codes.append(c.astype(int))
    return codes
