"""Coverage and memory repair: greedy cover scan, exhaustive minimum-cover
oracle, coverage-table construction from fault coordinates, and the
test/diagnose/repair pipeline pieces.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterable, Optional, Sequence

from veclog.assoc import AssociativeTable
from veclog.vlcore import (BitVector, LengthMismatch, ParseError, decimals,
                           value_type)


class TooLarge(ValueError):
    """Instance exceeds the exhaustive-enumeration bound."""


class Infeasible(ValueError):
    """No admissible cover exists."""


class NotCovering(ValueError):
    """Proposed cover leaves at least one fault unrepaired."""

    def __init__(self, uncovered: Sequence[tuple[int, int]]):
        self.uncovered = tuple(uncovered)
        listed = " ".join(f"({r},{c})" for r, c in self.uncovered)
        super().__init__(f"faults left uncovered: {listed}")


class BudgetExceeded(ValueError):
    """Proposed cover repairs everything but does not fit the spare budget."""

    def __init__(self, rows_used: int, max_rows: int,
                 cols_used: int, max_cols: int):
        self.rows_used = rows_used
        self.max_rows = max_rows
        self.cols_used = cols_used
        self.max_cols = max_cols
        super().__init__(
            f"cover needs {rows_used} spare rows (budget {max_rows}) and "
            f"{cols_used} spare columns (budget {max_cols})")


@value_type
class Spare:
    """A spare line: a whole memory row or column identified by its index."""

    __slots__ = ("axis", "index")
    axis: str  # "row" or "column"
    index: int

    def __post_init__(self):
        if self.axis not in ("row", "column"):
            raise ValueError(f"axis must be 'row' or 'column', got {self.axis!r}")

    @property
    def label(self) -> str:
        return ("R" if self.axis == "row" else "C") + str(self.index)


@value_type
class CoverageInstance:
    """Covering table: rows are covering elements (spare lines or generic
    sets), columns are the items to cover.  ``kinds`` holds each row's
    spare line, None for a generic set (all None when not given).  A table
    from ``build_repair_table`` carries no labels: ``kinds`` names its
    rows, and its column k is the k-th fault in sorted order."""

    table: AssociativeTable
    kinds: Optional[tuple[Optional[Spare], ...]] = None
    max_spare_rows: Optional[int] = None
    max_spare_cols: Optional[int] = None

    def __post_init__(self):
        height = self.table.height
        kinds = (None,) * height if self.kinds is None else tuple(self.kinds)
        if len(kinds) != height:
            raise ValueError(f"{len(kinds)} row kinds for {height} rows")
        self.__dict__["kinds"] = kinds


@value_type
class RepairInstance:
    """A memory module with faulty cells and a spare-line budget."""

    rows: int
    cols: int
    faults: frozenset[tuple[int, int]]
    spare_rows: int
    spare_cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("memory dimensions must be at least 1x1")
        if self.spare_rows < 0 or self.spare_cols < 0:
            raise ValueError("spare budgets must be non-negative")
        if not self.faults:
            return
        rows, cols = zip(*self.faults)
        if (min(rows) < 1 or max(rows) > self.rows or min(cols) < 1
                or max(cols) > self.cols):  # faults walked on failure
            r, c = next((r, c) for r, c in self.faults
                        if not (1 <= r <= self.rows and 1 <= c <= self.cols))
            raise ValueError(f"fault ({r},{c}) outside "
                             f"{self.rows}x{self.cols} memory")


def greedy_cover(instance: CoverageInstance) -> BitVector:
    """Single-pass cover scan: one bit per row, 1 = row taken.

    Rows are scanned in table order; a row is taken exactly when it covers
    at least one not-yet-covered column.  Columns nothing covers simply stay
    uncovered; inspect them with ``coverage_of``.
    """
    covered = 0
    taken = []
    for row in instance.table.values:
        gain = row & ~covered
        taken.append("1" if gain else "0")
        covered |= gain
    return BitVector(int("".join(taken), 2), len(taken))


def coverage_of(instance: CoverageInstance, taken: BitVector) -> BitVector:
    """Columns covered by the rows marked 1 in ``taken``."""
    table = instance.table
    if taken.length != table.height:
        raise LengthMismatch(
            f"selection width {taken.length} vs table height {table.height}")
    covered = 0
    for flag, row in zip(str(taken), table.values):
        if flag == "1":
            covered |= row
    return BitVector(covered, table.width)


def selected_rows(taken: BitVector) -> tuple[int, ...]:
    """1-based row numbers marked 1 in a row-selection vector."""
    return tuple(k for k, flag in enumerate(str(taken), start=1) if flag == "1")


EXHAUSTIVE_LIMIT = 24


def exact_cover_oracle(instance: CoverageInstance) -> tuple[tuple[int, ...], ...]:
    """Every minimum-cardinality cover, found by exhaustive search.

    Covers are returned as sorted tuples of 1-based row numbers, themselves
    sorted; budgets (when present) bound how many spare rows/columns a cover
    may use.  Only intended for tables of up to ``EXHAUSTIVE_LIMIT`` rows.

    The search deepens a size limit from 1 upward and stops at the first
    size that has a cover.  Each step branches only on the rows that cover
    the lowest-order column still uncovered, and a row tried at a step is
    left out of that step's later branches, so every cover is reached once.
    A branch ends as soon as it overruns the size limit or a spare budget.
    """
    n = instance.table.height
    if n > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"{n} rows exceeds the exhaustive bound "
                       f"{EXHAUSTIVE_LIMIT}")
    width = instance.table.width
    full = (1 << width) - 1
    masks = instance.table.values
    union = 0
    for m in masks:
        union |= m
    if union != full:
        raise Infeasible("some columns are covered by no row")
    max_rows, max_cols = (n if cap is None else cap for cap in
                          (instance.max_spare_rows, instance.max_spare_cols))
    spares = [(k is not None and k.axis == "row",
               k is not None and k.axis == "column") for k in instance.kinds]
    found: list[tuple[int, ...]] = []

    def grow(chosen: list[int], uncovered: int, tried: int,
             rows: int, cols: int) -> None:
        if not uncovered:
            found.append(tuple(sorted(i + 1 for i in chosen)))
            return
        if len(chosen) == limit:
            return
        low = uncovered & -uncovered
        for i in range(n):
            if not masks[i] & low or tried >> i & 1:
                continue
            tried |= 1 << i  # later branches here and below leave row i out
            is_row, is_col = spares[i]
            if rows + is_row > max_rows or cols + is_col > max_cols:
                continue
            chosen.append(i)
            grow(chosen, uncovered & ~masks[i], tried,
                 rows + is_row, cols + is_col)
            chosen.pop()

    for limit in range(1, n + 1):
        grow([], full, 0, 0, 0)
        if found:
            return tuple(sorted(found))
    raise Infeasible("no cover fits the spare budget")


def build_repair_table(instance: RepairInstance) -> CoverageInstance:
    """Coverage table for a faulty memory: one row per candidate spare line,
    spare columns ascending, then spare rows ascending (the greedy scan
    takes them in that order), and one column per fault, column k (1-based)
    being the k-th fault in sorted (row, column) order.  The table carries
    no row or column labels: ``kinds`` names each row, and a fault's
    column follows from its place in that order."""
    if not instance.faults:
        raise ValueError("repair instance has no faults")
    faults = sorted(instance.faults)
    n = len(faults)
    # axis -> line -> the faults on that line, as a bitmask over ``faults``
    lines: dict[str, dict[int, int]] = {"row": {}, "column": {}}
    for k, (r, c) in enumerate(faults):
        bit = 1 << (n - 1 - k)
        lines["row"][r] = lines["row"].get(r, 0) | bit
        lines["column"][c] = lines["column"].get(c, 0) | bit
    spares = (*(Spare("column", c) for c in sorted(lines["column"])),
              *(Spare("row", r) for r in sorted(lines["row"])))
    table = AssociativeTable(
        tuple(lines[s.axis][s.index] for s in spares), n)
    return CoverageInstance(table, spares,
                            max_spare_rows=instance.spare_rows,
                            max_spare_cols=instance.spare_cols)


def repair_plan(instance: RepairInstance,
                cover: Iterable[Spare]) -> tuple[tuple[Spare, int], ...]:
    """Validate a cover against the instance and assign spare ordinals:
    the faulty-line -> spare-ordinal remap, as ``((Spare, ordinal), ...)``.

    Raises ``NotCovering`` when some fault lies on no chosen line, and
    ``BudgetExceeded`` when the cover repairs everything but overruns the
    spare budget.  Ordinals are assigned in ascending line order, rows and
    columns numbered independently.
    """
    chosen = frozenset(cover)
    row_lines = {s.index for s in chosen if s.axis == "row"}
    col_lines = {s.index for s in chosen if s.axis == "column"}
    uncovered = sorted((r, c) for r, c in instance.faults
                       if r not in row_lines and c not in col_lines)
    if uncovered:
        raise NotCovering(uncovered)
    if len(row_lines) > instance.spare_rows or len(col_lines) > instance.spare_cols:
        raise BudgetExceeded(len(row_lines), instance.spare_rows,
                             len(col_lines), instance.spare_cols)
    remap = [(Spare("column", c), ordinal)
             for ordinal, c in enumerate(sorted(col_lines), start=1)]
    remap += [(Spare("row", r), ordinal)
              for ordinal, r in enumerate(sorted(row_lines), start=1)]
    return tuple(remap)


# ---------------------------------------------------------------------------
# Repair instance file format:
#   R C r_max c_max
#   <one "r c" fault coordinate per line>

def parse_repair_instance(text: str) -> RepairInstance:
    pairs = iter(_repair_numbers(text))
    rows, cols, spare_rows, spare_cols = islice(pairs, 4)
    # through a set, as faults were always gathered: the fault outside the
    # memory that an error names is the first in the set's order
    faults = frozenset(set(zip(pairs, pairs)))
    try:
        return RepairInstance(rows, cols, faults, spare_rows, spare_cols)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _repair_numbers(text: str) -> list[int]:
    """The header's four numbers, then each fault's row and column.  The
    lines are read one by one, naming the first bad one, only when the
    text as a whole is in doubt.  Otherwise each line's token count is
    checked, no line's tokens are kept, and the numbers come from one
    ``text.split()``: every line break of ``str.splitlines`` is whitespace
    to ``str.split``, so its tokens are the lines' tokens in order."""
    counts = filter(None, map(len, map(str.split, text.splitlines())))
    if next(counts, 0) == 4 and all(count == 2 for count in counts):
        tokens = text.split()
        if "".join(tokens).isdecimal():
            try:
                return list(map(int, tokens))
            except ValueError:  # a number longer than int() converts
                pass
    lines = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), 1)
             if (line := raw.strip())]
    if not lines:
        raise ParseError("empty repair instance")
    header_line, header = lines[0]
    numbers = decimals(
        header, 4, header_line,
        "header must be four integers: rows cols spare_rows spare_cols")
    for lineno, entry in lines[1:]:
        numbers += decimals(entry, 2, lineno,
                            "fault line must be two integers: row col")
    return numbers
