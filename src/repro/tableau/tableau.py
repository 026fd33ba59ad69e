"""Tableaux.

A tableau is a set of rows over the universe ``U``; each row maps every
attribute to a symbol (paper, Section 2.2).  Rows carry an optional *tag*
recording which relation scheme they originate from — the paper's
TAG-column (Example 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping, Optional

from repro.foundations.attrs import AttrsLike, attrs, sorted_attrs
from repro.foundations.errors import StateError
from repro.tableau.symbols import (
    Symbol,
    fmt_symbol,
    is_constant,
    constant_value,
)


@dataclass(frozen=True)
class Row:
    """One tableau row: an immutable mapping from attributes to symbols."""

    cells: Mapping[str, Symbol]
    tag: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", dict(self.cells))

    def __getitem__(self, attribute: str) -> Symbol:
        return self.cells[attribute]

    def restrict(self, attributes: AttrsLike) -> dict[str, Symbol]:
        """The restriction of the row to the given attributes."""
        return {a: self.cells[a] for a in attrs(attributes)}

    def is_total_on(self, attributes: AttrsLike) -> bool:
        """True iff every cell over ``attributes`` holds a constant."""
        return all(is_constant(self.cells[a]) for a in attrs(attributes))

    def constant_attributes(self) -> frozenset[str]:
        """The attributes on which this row holds constants (the row's
        *constant components* in the paper's wording)."""
        return frozenset(
            a for a, symbol in self.cells.items() if is_constant(symbol)
        )

    def constants(self) -> dict[str, Hashable]:
        """Mapping of attribute → constant value on the constant cells."""
        return {
            a: constant_value(symbol)
            for a, symbol in self.cells.items()
            if is_constant(symbol)
        }

    def key(self) -> tuple[tuple[str, Symbol], ...]:
        """A hashable identity for the row's cells (tags excluded)."""
        return tuple(sorted(self.cells.items()))


class Tableau:
    """A tableau over a fixed universe.

    Rows are stored in insertion order (deterministic); duplicates by
    cell-content are permitted, as the paper allows redundant rows.
    """

    def __init__(self, universe: AttrsLike, rows: Iterable[Row] = ()) -> None:
        self.universe: frozenset[str] = attrs(universe)
        self._rows: list[Row] = []
        for row in rows:
            self.add_row(row)

    # -- construction --------------------------------------------------------
    def add_row(self, row: Row) -> None:
        """Append a row, validating it spans exactly the universe."""
        if frozenset(row.cells) != self.universe:
            raise StateError(
                "row attributes do not match the tableau universe: "
                f"{sorted(row.cells)} vs {sorted(self.universe)}"
            )
        self._rows.append(row)

    def copy(self) -> "Tableau":
        return Tableau(self.universe, self._rows)

    # -- container protocol --------------------------------------------------
    @property
    def rows(self) -> tuple[Row, ...]:
        return tuple(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    # -- queries --------------------------------------------------------------
    def total_projection(self, attributes: AttrsLike) -> set[tuple[Hashable, ...]]:
        """The restricted projection ``π!_X``: project rows that are total
        on ``X`` onto ``X`` (paper, Section 2.1).  Values are returned as
        tuples ordered by the canonical attribute order.  No row is total
        on an attribute outside the universe, so such an ``X`` gives ∅."""
        target = attrs(attributes)
        if not target <= self.universe:
            return set()
        ordered = sorted_attrs(target)
        result: set[tuple[Hashable, ...]] = set()
        for row in self._rows:
            if row.is_total_on(ordered):
                result.add(tuple(constant_value(row[a]) for a in ordered))
        return result

    def total_rows(self) -> list[Row]:
        """Rows whose every cell is a constant."""
        return [row for row in self._rows if row.is_total_on(self.universe)]

    def distinct_rows(self) -> "Tableau":
        """A copy with duplicate rows (identical cells) removed, keeping
        the first occurrence of each."""
        seen: set[tuple[tuple[str, Symbol], ...]] = set()
        kept: list[Row] = []
        for row in self._rows:
            identity = row.key()
            if identity not in seen:
                seen.add(identity)
                kept.append(row)
        return Tableau(self.universe, kept)

    # -- rendering -------------------------------------------------------------
    def pretty(self) -> str:
        """Render the tableau as the paper prints them, TAG column last."""
        columns = sorted_attrs(self.universe)
        header = columns + ["TAG"]
        body = [
            [fmt_symbol(row[a]) for a in columns] + [row.tag or ""]
            for row in self._rows
        ]
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body), 1)
            if body
            else len(header[i])
            for i in range(len(header))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for line in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(line, widths)))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Tableau(|rows|={len(self._rows)}, U={sorted(self.universe)})"
