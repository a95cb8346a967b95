"""Shared test utilities: random instances and independent mini-oracles."""
from __future__ import annotations

import random
from itertools import product

from veclog.assoc import AssociativeTable
from veclog.vlcore import BitVector, TernaryVector, vectorize


def rand_bitvector(rng: random.Random, width: int) -> BitVector:
    return BitVector(rng.getrandbits(width), width)


def rand_table(rng: random.Random, height: int, width: int) -> AssociativeTable:
    return AssociativeTable([rand_bitvector(rng, width) for _ in range(height)])


def vectorize_column(table: AssociativeTable, j: int) -> BitVector:
    """Column j (1-based) of a table, read top to bottom."""
    return vectorize(row.bit(j) for row in table.rows)


def ternary_space(v: TernaryVector) -> set[str]:
    """All binary strings a ternary vector expands to (oracle use only)."""
    slots = [("0", "1") if ch == "x" else (ch,) for ch in v.symbols()]
    return {"".join(choice) for choice in product(*slots)}


def all_ternary(length: int):
    """Every ternary vector of the given length."""
    for symbols in product("01x", repeat=length):
        yield TernaryVector.from_string("".join(symbols))
