"""Associative-table engine: feasibility masking, fault diagnosis and
best-match queries over a table of equal-width binary rows.

Row and column numbers are 1-based wherever they face a human (they match
line order in the table file); Python sequences stay 0-indexed.

The text readers take the file's text as a ``str`` and check it row by
row, which names the first bad line and column.  ``read_table`` reads a
binary file itself, decoding each piece it reads as ASCII: a binary table
in the plain layout (header on line 1, then one row of exactly ``width``
symbols per "\n"-ended line) is converted by row stride, one
``int(row, 2)`` per row, in blocks of about 64 KiB.  Any other file is read
whole, once, and checked row by row.
"""
from __future__ import annotations

from enum import Enum
from itertools import islice, repeat
from typing import BinaryIO, Callable, Iterator, Optional, Sequence

from veclog.vlcore import (BitVector, CompactedQuality, LengthMismatch,
                           ParseError, TernaryVector, check_symbols,
                           decimals, slc, value_type)


@value_type
class AssociativeTable:
    """Ordered, immutable rows of ``width`` bits with optional row/column
    labels.  Row i is the int ``values[i]``, whose ``width``-digit binary
    form reads as the row, coordinate 1 first; any sequence given is stored
    as a tuple."""

    values: tuple[int, ...]
    width: int
    row_labels: Optional[tuple[str, ...]] = None
    col_labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        values, width = tuple(self.values), self.width
        if not values:
            raise ValueError("a table needs at least one row")
        if width < 1:
            raise ValueError(f"table width must be at least 1, got {width}")
        if min(values) < 0 or max(values) >> width:  # rows walked on failure
            bad = next(k for k, v in enumerate(values, 1)
                       if v < 0 or v >> width)
            raise ValueError(f"row {bad} does not fit width {width}")
        self.__dict__.update(
            values=values,
            row_labels=_checked_labels(self.row_labels, len(values), "row"),
            col_labels=_checked_labels(self.col_labels, width, "column"))

    @property
    def height(self) -> int:
        return len(self.values)

    @property
    def rows(self) -> tuple[BitVector, ...]:
        """The rows as bit vectors, built on each call."""
        return tuple(map(BitVector, self.values, repeat(self.width)))

    def widened(self, width: int) -> "AssociativeTable":
        """Copy with zero columns appended on the right up to ``width``."""
        if width < self.width:
            raise ValueError(f"cannot shrink width {self.width} to {width}")
        if width == self.width:
            return self
        pad = width - self.width
        cols = None
        if self.col_labels is not None:
            cols = list(self.col_labels) + [f"pad{k}" for k in range(1, pad + 1)]
        return AssociativeTable([v << pad for v in self.values], width,
                                self.row_labels, cols)

    def __repr__(self) -> str:
        return f"AssociativeTable({self.height}x{self.width})"


def _checked_labels(labels: Optional[Sequence[str]], count: int,
                    what: str) -> Optional[tuple[str, ...]]:
    if labels is None:
        return None
    labels = tuple(labels)
    if len(labels) != count:
        raise ValueError(f"{len(labels)} {what} labels for {count} {what}s")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate {what} labels")
    return labels


class DiagnosisMode(Enum):
    SINGLE = "single"
    MULTIPLE = "multiple"


def _check_query(table: AssociativeTable, query: BitVector) -> None:
    if query.length != table.width:
        raise LengthMismatch(
            f"query width {query.length} vs table width {table.width}")


def feasible_mask(table: AssociativeTable, query: BitVector) -> BitVector:
    """One bit per row: 0 when the query's 1s are contained in the row
    (feasible), 1 when the row contradicts the query."""
    _check_query(table, query)
    q = query.value
    flags = ["0" if q & row == q else "1" for row in table.values]
    return BitVector(int("".join(flags), 2), table.height)


def diagnose(table: AssociativeTable, response: BitVector,
             mode: "DiagnosisMode | str" = DiagnosisMode.SINGLE) -> BitVector:
    """Candidate fault columns (1 = candidate) from a test-response vector;
    no candidate at all means the response is inconsistent.

    Rows are test signatures (columns are faults); response bit i = 1 means
    test i failed.  Single mode (``mode`` is ``DiagnosisMode.SINGLE`` or
    its value ``"single"``) intersects the failing rows; multiple mode
    unions them.  Either way, columns seen by a passing test are masked out.
    An all-zero response leaves the complement of all rows: "no fault
    observed" rather than an error.
    """
    if response.length != table.height:
        raise LengthMismatch(
            f"response width {response.length} does not match table height "
            f"{table.height}")
    single = DiagnosisMode(mode) is DiagnosisMode.SINGLE
    hits = (1 << table.width) - 1 if single else 0
    misses = 0
    for flag, row in zip(str(response), table.values):
        if flag == "1":
            hits = hits & row if single else hits | row
        else:
            misses |= row
    return BitVector(hits & ~misses, table.width)


def best_match(query: BitVector,
               table: AssociativeTable) -> tuple[list[int], CompactedQuality]:
    """Rows with the minimal compacted quality against the query.

    Returns (row numbers, quality); row numbers are 1-based in table order.
    By the reduction theorem the quality vector of a pair is their xor, and
    one compacted run is contained in another exactly when it has no more
    1s, so the minimum is taken over xor popcounts.  The compacted quality
    depends only on that least popcount and the width, so every tied row
    has the same quality, built once from the count.
    """
    _check_query(table, query)
    q = query.value
    ones = [(q ^ row).bit_count() for row in table.values]
    least = min(ones)
    best_rows = [k for k, n in enumerate(ones, start=1) if n == least]
    return best_rows, CompactedQuality(
        slc(BitVector((1 << least) - 1, table.width)))


# ---------------------------------------------------------------------------
# Table file format:
#   n w
#   <n lines of w symbols over {0,1} (or {0,1,x} for ternary use)>
#   #labels              (optional trailer)
#   rows: <n names>
#   cols: <w names>

def parse_table(text: str) -> AssociativeTable:
    """Parse the table format into a binary table, row by row."""
    return _table(_checked_rows(text, False))


def read_table(fh: BinaryIO, update: Optional[Callable[[bytes], object]] = None
               ) -> AssociativeTable:
    """The binary table the binary file ``fh`` holds, streamed and converted
    by row stride while it is ASCII in the plain layout.  From the first
    piece that is not, or at once if ``fh`` cannot seek, it is read whole
    from its start and checked row by row; UnicodeDecodeError if it is not
    ASCII.  ``update``, when given, is called on pieces that hold each byte
    of the file once, in order."""
    update = update or (lambda piece: None)
    parsed = fh.seekable() and _stream_rows(fh, update)
    if not parsed:
        done = fh.tell() if fh.seekable() else 0
        if done:
            fh.seek(0)
        data = fh.read()
        update(memoryview(data)[done:])
        parsed = _checked_rows(data.decode("ascii"), False)
    return _table(parsed)


def parse_ternary_rows(
        text: str) -> tuple[list[TernaryVector], Optional[tuple[str, ...]]]:
    """Parse the same format allowing the x symbol; returns rows and any
    row labels."""
    rows, width, tail, first = _checked_rows(text, True)
    return (list(map(TernaryVector.from_symbols, rows)),
            _labels(tail, first, len(rows), width)[0])


# The symbols besides 0 and 1 that ``int(row, 2)`` accepts in ASCII text:
# signs, underscores, the 0b prefix and whitespace other than "\n".
_INT_EXTRAS = "+-_bB \t\r\x0b\x0c"
# A file's rows are read in blocks of as many whole rows as fit in this many
# bytes.
_BLOCK = 1 << 16


def _table(parsed) -> AssociativeTable:
    """The binary table ``_checked_rows`` or ``_stream_rows`` returned."""
    values, width, tail, first = parsed
    return AssociativeTable(values, width,
                            *_labels(tail, first, len(values), width))


def _dimensions(header: str, line: int) -> tuple[int, int]:
    """(height, width) from the header, which is line ``line``."""
    height, width = decimals(header, 2, line,
                             "header must be two integers: height width")
    if height < 1 or width < 1:
        raise ParseError("table dimensions must be at least 1x1", line=line)
    return height, width


def _plain_header(line: str) -> Optional[tuple[int, int]]:
    """(height, width) from a plain layout's header ``line``: ended by "\n"
    and holding no other line break.  None for any other ``line``."""
    header = line[:-1] if line.endswith("\n") else ""
    if not (header.strip() and header.splitlines() == [header]):
        return None
    try:
        return _dimensions(header, 1)
    except ParseError:
        return None


def _strided(block: str, rows: int, width: int) -> Optional[list[int]]:
    """The ``rows`` rows of a plain layout in the ASCII text ``block``, read
    as at most ``rows * (width + 1)`` characters, as ints: row k is the
    ``width`` symbols at ``k * (width + 1)``.  None unless all are there,
    "\n"-ended, of 0s and 1s."""
    stride = width + 1
    # int() strips a "\n" that starts or ends a row and rejects one inside
    if (block[width::stride] != "\n" * rows
            or "\n" in block[::stride]
            or "\n" in block[width - 1::stride]
            or any(ch in block for ch in _INT_EXTRAS)):
        return None
    try:
        return [int(block[k:k + width], 2)
                for k in range(0, len(block), stride)]
    except ValueError:  # a symbol other than 0 or 1
        return None


def _stream_rows(fh: BinaryIO, update: Callable[[bytes], object]):
    """What ``_checked_rows`` returns, for a binary table in the plain
    layout, read from the binary file ``fh`` and given to ``update`` a piece
    at a time: the header line, blocks of whole rows, then the rest, each
    decoded as ASCII; None at the first piece of another table or that is
    not ASCII."""
    header = fh.readline()
    update(header)
    try:
        shape = _plain_header(header.decode("ascii"))
        if not shape or shape[1] >= _BLOCK:  # a row wider than a block
            return None
        height, width = shape
        per_block = _BLOCK // (width + 1)
        values: list[int] = []
        for done in range(0, height, per_block):
            rows = min(per_block, height - done)
            block = fh.read(rows * (width + 1))
            update(block)
            converted = _strided(block.decode("ascii"), rows, width)
            if not converted:
                return None
            values += converted
        tail = fh.read()
        update(tail)
        return values, width, tail.decode("ascii").splitlines(), height + 2
    except UnicodeDecodeError:
        return None


def _numbers(lines: list[str], k: int = 0) -> Iterator[int]:
    """The 1-based numbers of the non-blank lines from the ``k``-th (0-based)
    on; counted only where a check reports them."""
    return islice((n for n, raw in enumerate(lines, 1) if raw.strip()), k,
                  None)


def _checked_rows(text: str, ternary: bool):
    """(rows, width, the lines after the rows, the number of the first of
    them) for any table: each line stripped, blank lines skipped, and each
    row checked symbol by symbol.  The rows are ints, or for ``ternary``
    their symbols."""
    lines = text.splitlines()
    body = list(filter(None, map(str.strip, lines)))
    if not body:
        raise ParseError("empty table")
    height, width = _dimensions(body[0], next(_numbers(lines)))
    rows = body[1:1 + height]
    if len(rows) < height:
        raise ParseError(f"expected {height} rows, found {len(rows)}",
                         line=next(_numbers(lines, len(body) - 1)))
    alphabet = "01x" if ternary else "01"
    for lineno, row in zip(_numbers(lines, 1), rows):
        if len(row) != width:
            raise ParseError(f"row has {len(row)} symbols, expected "
                             f"{width}", line=lineno)
        check_symbols(row, alphabet, line=lineno)
    values = rows if ternary else list(map(int, rows, repeat(2)))
    return values, width, lines[lineno:], lineno + 1  # after the last row


def _labels(lines: list[str], first: int, height: int, width: int):
    """(row labels, column labels) from the lines after a table's rows,
    the first of which is line ``first``: blank, or a ``#labels`` trailer."""
    trailer = [(n, entry) for n, entry in enumerate(map(str.strip, lines),
                                                    first) if entry]
    if trailer and trailer[0][1] != "#labels":
        raise ParseError("unexpected content after table rows "
                         "(expecting '#labels')", line=trailer[0][0])
    labels: dict[str, tuple[str, ...]] = {}
    shape = {"rows": (height, "row"), "cols": (width, "column")}
    for lineno, entry in trailer[1:]:
        key, _, names = entry.partition(":")
        if key not in shape:
            raise ParseError("label lines must start with 'rows:' or 'cols:'",
                             line=lineno)
        if key in labels:
            raise ParseError(f"repeated '{key}:' line", line=lineno)
        try:
            labels[key] = _checked_labels(names.split(), *shape[key])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return labels.get("rows"), labels.get("cols")
