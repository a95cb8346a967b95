"""Shared test utilities: random instances, independent mini-oracles and a
fresh-interpreter runner."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import veclog
from veclog.assoc import AssociativeTable, _checked_labels
from veclog.cover import (EXHAUSTIVE_LIMIT, CoverageInstance, Infeasible,
                          RepairInstance, TooLarge)
from veclog.vlcore import (BitVector, EmptyInput, ParseError, TernaryVector,
                           check_symbols, decimals)


# every line break str.splitlines knows, and whitespace that str.strip
# removes but that breaks no line
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029"]
PADS = [" ", "\t", "\x1f", "\xa0", "\u3000"]


def rand_bitvector(rng: random.Random, width: int) -> BitVector:
    return BitVector(rng.getrandbits(width), width)


def rand_table(rng: random.Random, height: int, width: int) -> AssociativeTable:
    return AssociativeTable([rng.getrandbits(width) for _ in range(height)],
                            width)


# Reference primitives of vector logic, which the differential tests build
# their formulations of the table kernels from (oracle use only).

def bit(v: BitVector, k: int) -> int:
    """Coordinate k of ``v``, 1-based from the left."""
    if not 1 <= k <= v.length:
        raise IndexError(f"coordinate {k} out of 1..{v.length}")
    return (v.value >> (v.length - k)) & 1


def devectorize(a: BitVector) -> int:
    """OR-reduce a vector to a single bit: 1 iff any coordinate is 1."""
    return 1 if a.value else 0


def vectorize(bits) -> BitVector:
    """Concatenate single bits, in order, into a vector."""
    value = 0
    n = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
        value = (value << 1) | b
        n += 1
    if n == 0:
        raise EmptyInput("vectorize needs at least one bit")
    return BitVector(value, n)


def with_bit(v: BitVector, k: int, bit: int) -> BitVector:
    """Copy with coordinate k (1-based) replaced."""
    if not 1 <= k <= v.length:
        raise IndexError(f"coordinate {k} out of 1..{v.length}")
    mask = 1 << (v.length - k)
    value = (v.value & ~mask) | (mask if bit else 0)
    return BitVector(value, v.length)


def vectorize_column(table: AssociativeTable, j: int) -> BitVector:
    """Column j (1-based) of a table, read top to bottom."""
    return vectorize(bit(row, j) for row in table.rows)


def ternary_space(v: TernaryVector) -> set[str]:
    """All binary strings a ternary vector expands to (oracle use only)."""
    slots = [("0", "1") if ch == "x" else (ch,) for ch in str(v)]
    return {"".join(choice) for choice in product(*slots)}


def all_ternary(length: int):
    """Every ternary vector of the given length."""
    for symbols in product("01x", repeat=length):
        yield TernaryVector.from_string("".join(symbols))


def reference_ternary(text: str) -> TernaryVector:
    """``TernaryVector.from_string`` as one loop over the symbols, with the
    same errors (oracle use only)."""
    if not text:
        raise EmptyInput("empty ternary string")
    ones = xs = 0
    for col, ch in enumerate(text, start=1):
        ones <<= 1
        xs <<= 1
        if ch == "1":
            ones |= 1
        elif ch == "x":
            xs |= 1
        elif ch != "0":
            raise ParseError(f"invalid symbol {ch!r} in ternary string",
                             column=col)
    return TernaryVector(ones, xs, len(text))


def reference_parse_table(text: str) -> AssociativeTable:
    """``parse_table`` as one loop over numbered lines that checks every row
    symbol by symbol, with the same results and errors (oracle use only)."""
    rows, row_labels, col_labels = _reference_parse_rows(text, ternary=False)
    width = len(rows[0])
    return AssociativeTable([int(row, 2) for row in rows], width, row_labels,
                            col_labels)


def reference_parse_ternary_rows(text: str):
    """``parse_ternary_rows`` in the same form (oracle use only)."""
    rows, row_labels, _ = _reference_parse_rows(text, ternary=True)
    return [TernaryVector.from_string(r) for r in rows], row_labels


def _reference_parse_rows(text: str, ternary: bool):
    alphabet = "01x" if ternary else "01"
    body = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), 1)
            if (line := raw.strip())]
    if not body:
        raise ParseError("empty table")
    header_line, header = body[0]
    height, width = decimals(header, 2, header_line,
                             "header must be two integers: height width")
    if height < 1 or width < 1:
        raise ParseError("table dimensions must be at least 1x1",
                         line=header_line)
    if len(body) < 1 + height:
        raise ParseError(f"expected {height} rows, found {len(body) - 1}",
                         line=body[-1][0])
    rows = []
    for lineno, row in body[1:1 + height]:
        if len(row) != width:
            raise ParseError(f"row has {len(row)} symbols, expected {width}",
                             line=lineno)
        check_symbols(row, alphabet, line=lineno)
        rows.append(row)
    labels: dict[str, tuple[str, ...]] = {}
    shape = {"rows": (height, "row"), "cols": (width, "column")}
    trailer = body[1 + height:]
    if trailer:
        lineno, sentinel = trailer[0]
        if sentinel != "#labels":
            raise ParseError("unexpected content after table rows "
                             "(expecting '#labels')", line=lineno)
        for lineno, entry in trailer[1:]:
            key, _, names = entry.partition(":")
            if key not in shape:
                raise ParseError("label lines must start with 'rows:' or "
                                 "'cols:'", line=lineno)
            if key in labels:
                raise ParseError(f"repeated '{key}:' line", line=lineno)
            try:
                labels[key] = _checked_labels(names.split(), *shape[key])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
    return rows, labels.get("rows"), labels.get("cols")


def reference_parse_repair_instance(text: str) -> RepairInstance:
    """``parse_repair_instance`` as one loop over numbered lines, with the
    faults checked one by one, with the same results and errors (oracle use
    only)."""
    lines = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), 1)
             if (line := raw.strip())]
    if not lines:
        raise ParseError("empty repair instance")
    header_line, header = lines[0]
    rows, cols, spare_rows, spare_cols = decimals(
        header, 4, header_line,
        "header must be four integers: rows cols spare_rows spare_cols")
    faults = {tuple(decimals(entry, 2, lineno,
                             "fault line must be two integers: row col"))
              for lineno, entry in lines[1:]}
    faults = frozenset(faults)
    if rows >= 1 and cols >= 1 and min(spare_rows, spare_cols) >= 0:
        for r, c in faults:
            if not (1 <= r <= rows and 1 <= c <= cols):
                raise ParseError(f"fault ({r},{c}) outside {rows}x{cols} "
                                 f"memory")
    try:
        return RepairInstance(rows, cols, faults, spare_rows, spare_cols)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def outcome(call, *args):
    """What ``call(*args)`` returns, or the ValueError it raises as (type,
    message, line, column)."""
    try:
        return call(*args)
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def reference_cover_oracle(
        instance: CoverageInstance) -> tuple[tuple[int, ...], ...]:
    """Every minimum-cardinality cover by brute force: each row subset of
    each size from 1 upward, ORed from scratch (oracle use only)."""
    n = instance.table.height
    if n > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"{n} rows exceeds the exhaustive bound "
                       f"{EXHAUSTIVE_LIMIT}")
    width = instance.table.width
    full = (1 << width) - 1
    masks = [row.value for row in instance.table.rows]
    union = 0
    for m in masks:
        union |= m
    if union != full:
        raise Infeasible("some columns are covered by no row")
    max_rows = instance.max_spare_rows
    max_cols = instance.max_spare_cols
    row_kind = [k is not None and k.axis == "row" for k in instance.kinds]
    col_kind = [k is not None and k.axis == "column" for k in instance.kinds]

    def admissible(combo: tuple[int, ...]) -> bool:
        if max_rows is not None and sum(row_kind[i] for i in combo) > max_rows:
            return False
        if max_cols is not None and sum(col_kind[i] for i in combo) > max_cols:
            return False
        return True

    for size in range(1, n + 1):
        found = []
        for combo in combinations(range(n), size):
            u = 0
            for i in combo:
                u |= masks[i]
            if u == full and admissible(combo):
                found.append(tuple(i + 1 for i in combo))
        if found:
            return tuple(sorted(found))
    raise Infeasible("no cover fits the spare budget")


def run_python(code: str, *args: str) -> str:
    """What ``python -c code args`` prints, run on this checkout's package
    in a fresh interpreter, where nothing of veclog is loaded yet."""
    env = {**os.environ, "PYTHONPATH": str(Path(veclog.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout
