"""The input checks each have one implementation in ``vlcore``; every
caller still raises its own exception type, message, line and column."""
import random

import pytest

from helpers import (outcome, reference_parse_table,
                     reference_parse_ternary_rows, reference_ternary)
from veclog.assoc import (AssociativeTable, best_match, feasible_mask,
                          parse_table, parse_ternary_rows)
from veclog.cover import parse_repair_instance
from veclog.metric import (CompactedQuality, better_of, quality_arith,
                           quality_vector)
from veclog.vlcore import (BitVector, EmptyInput, LengthMismatch, ParseError,
                           TernaryVector, ternary_intersect)

WIDTHS = [1, 63, 64, 65, 256]


def _error(call, *args):
    """The exception ``call(*args)`` raises, as (type, message, line,
    column)."""
    with pytest.raises(ValueError) as err:
        call(*args)
    exc = err.value
    return (type(exc), str(exc), getattr(exc, "line", None),
            getattr(exc, "column", None))


@pytest.mark.parametrize("width", WIDTHS)
def test_ternary_matches_reference_loop(width):
    rng = random.Random(width)
    for _ in range(200):
        text = "".join(rng.choice("01x") for _ in range(width))
        assert TernaryVector.from_string(text) == reference_ternary(text)


def _with_bad(text: str, columns, symbols="z?") -> str:
    chars = list(text)
    for col, ch in zip(columns, symbols):
        chars[col - 1] = ch
    return "".join(chars)


def _bad_columns(width: int):
    """A bad symbol in the first, a middle and the last column, and two bad
    symbols (the first of them is the one reported)."""
    places = {(1,), ((width + 1) // 2,), (width,)}
    if width > 1:
        places |= {(2, width), (1, width - 1)}
    return sorted(places)


@pytest.mark.parametrize("width", WIDTHS)
def test_ternary_errors_match_reference_loop(width):
    rng = random.Random(width)
    good = "".join(rng.choice("01x") for _ in range(width))
    for columns in _bad_columns(width):
        text = _with_bad(good, columns)
        want = (ParseError, "invalid symbol 'z' in ternary string", None,
                columns[0])
        assert _error(reference_ternary, text) == want
        assert _error(TernaryVector.from_string, text) == want
    assert _error(TernaryVector.from_string, "") == \
        _error(reference_ternary, "") == \
        (EmptyInput, "empty ternary string", None, None)


@pytest.mark.parametrize("width", WIDTHS)
def test_bit_string_errors(width):
    good = "10" * (width // 2) + "1" * (width % 2)
    for columns in _bad_columns(width):
        text = _with_bad(good, columns, "x2")
        assert _error(BitVector.from_string, text) == \
            (ParseError, "invalid symbol 'x' in bit string", None, columns[0])
    assert _error(BitVector.from_string, "") == \
        (EmptyInput, "empty bit string", None, None)


# every ASCII character, digits int() reads that are not ASCII, a digit it
# does not read and a line break outside ASCII
SYMBOLS = [chr(c) for c in range(128)] + ["\u0661", "\uff11", "\xb2",
                                          "\u2028"]


@pytest.mark.parametrize("width", WIDTHS)
def test_table_row_errors(width):
    """A bad symbol is named with its line and column, the first of two
    bad symbols too.  So is each other symbol that is not whitespace, in
    the first, the second (after a 0, as in int()'s 0b prefix), a middle
    and the last column; whitespace reshapes the rows as the row-by-row
    reference reads them."""
    good = "01" * (width // 2) + "0" * (width % 2)
    for columns in _bad_columns(width):
        row = _with_bad(good, columns, "x2")
        text = f"2 {width}\n{good}\n\n{row}\n"
        assert _error(parse_table, text) == \
            (ParseError, "invalid symbol 'x'", 4, columns[0])
        row = _with_bad(good, columns, "2x")
        assert _error(parse_ternary_rows, f"2 {width}\n{good}\n\n{row}\n") \
            == (ParseError, "invalid symbol '2'", 4, columns[0])
    for parse, reference, alphabet in (
            (parse_table, reference_parse_table, "01"),
            (parse_ternary_rows, reference_parse_ternary_rows, "01x")):
        for ch in SYMBOLS:
            for col in sorted({1, min(2, width), (width + 1) // 2, width}):
                row = good[:col - 1] + ch + good[col:]
                text = f"2 {width}\n{good}\n\n{row}\n"
                got = outcome(parse, text)
                assert got == outcome(reference, text), (ch, col)
                if ch not in alphabet and not ch.isspace():
                    assert got == (ParseError, f"invalid symbol {ch!r}", 4,
                                   col)


def _bits(text: str) -> BitVector:
    return BitVector.from_string(text)


def _ternary(text: str) -> TernaryVector:
    return TernaryVector.from_string(text)


OPERANDS = "operand lengths differ: 3 vs 2"
QUERY = "query width 2 vs table width 3"
TABLE = AssociativeTable([0b101, 0b011], 3)


@pytest.mark.parametrize("call, args, message", [
    (BitVector.__and__, (_bits("101"), _bits("10")), OPERANDS),
    (BitVector.__or__, (_bits("101"), _bits("10")), OPERANDS),
    (BitVector.__xor__, (_bits("101"), _bits("10")), OPERANDS),
    (ternary_intersect, (_ternary("1x0"), _ternary("x1")), OPERANDS),
    (quality_arith, (_ternary("1x0"), _ternary("x1")), OPERANDS),
    (quality_vector, (_bits("101"), _bits("10")), OPERANDS),
    (better_of, (CompactedQuality(_bits("100")),
                 CompactedQuality(_bits("10"))), OPERANDS),
    (feasible_mask, (TABLE, _bits("10")), QUERY),
    (best_match, (_bits("10"), TABLE), QUERY),
], ids=["and", "or", "xor", "ternary_intersect", "quality_arith",
        "quality_vector", "better_of", "feasible_mask", "best_match"])
def test_length_mismatch_messages(call, args, message):
    assert _error(call, *args) == (LengthMismatch, message, None, None)


LONG = "1" * 4301
DIGITS = "number has 4301 digits, more than the 4300 allowed"


@pytest.mark.parametrize("parse, text, message, line", [
    (parse_table, "\n\n3 a\n110\n",
     "header must be two integers: height width", 3),
    (parse_table, "\n3 4 5\n", "header must be two integers: height width",
     2),
    (parse_table, f"\n{LONG} 4\n0101\n", DIGITS, 2),
    (parse_ternary_rows, "2\n1x\n", "header must be two integers: height "
     "width", 1),
    (parse_repair_instance, "\n4 4 one 1\n", "header must be four integers: "
     "rows cols spare_rows spare_cols", 2),
    (parse_repair_instance, "4 4 1\n", "header must be four integers: rows "
     "cols spare_rows spare_cols", 1),
    (parse_repair_instance, f"2 2 {LONG} 1\n1 1\n", DIGITS, 1),
    (parse_repair_instance, "4 4 1 1\n1 2\n\n1 2 3\n",
     "fault line must be two integers: row col", 4),
    (parse_repair_instance, "4 4 1 1\n1 -2\n",
     "fault line must be two integers: row col", 2),
    (parse_repair_instance, f"2 2 1 1\n1 1\n{LONG} 2\n", DIGITS, 3),
], ids=["table-alpha", "table-three", "table-long", "ternary-one",
        "repair-alpha", "repair-three", "repair-long", "fault-three",
        "fault-negative", "fault-long"])
def test_number_line_messages(parse, text, message, line):
    assert _error(parse, text) == (ParseError, message, line, None)
