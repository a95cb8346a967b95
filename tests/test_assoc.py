import hashlib
import io
import os
import random
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (BREAKS, PADS, bit, outcome, rand_table,
                     reference_parse_table, reference_parse_ternary_rows)
from veclog import assoc, cli
from veclog.assoc import (
    AssociativeTable,
    DiagnosisMode,
    best_match,
    diagnose,
    feasible_mask,
    parse_table,
    parse_ternary_rows,
    read_table,
)
from veclog.vlcore import BitVector, LengthMismatch, ParseError


def bv(s):
    return BitVector.from_string(s)


def table(*rows, **kw):
    return AssociativeTable([int(r, 2) for r in rows], len(rows[0]), **kw)


def oracle_single_candidates(t: AssociativeTable, response: BitVector) -> str:
    """Brute force: a column is a candidate iff it equals the response."""
    resp = str(response)
    out = []
    for j in range(t.width):
        column = "".join(str(row)[j] for row in t.rows)
        out.append("1" if column == resp else "0")
    return "".join(out)


class TestTable:
    def test_dimensions(self):
        t = table("1100", "0011")
        assert (t.height, t.width) == (2, 4)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="^row 2 does not fit width 3$"):
            AssociativeTable([0b110, 0b1100], 3)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            table("10", "01", row_labels=["a"])
        with pytest.raises(ValueError):
            table("10", "01", row_labels=["a", "a"])

    def test_widened(self):
        t = table("11", "01")
        wide = t.widened(4)
        assert [str(r) for r in wide.rows] == ["1100", "0100"]
        assert t.widened(2) is t


class TestFeasibleMask:
    def test_direct_formula(self):
        t = table("1100", "1111", "0011")
        assert feasible_mask(t, bv("1100")) == bv("001")

    def test_empty_query_fits_everywhere(self):
        t = table("1010", "0001")
        assert feasible_mask(t, bv("0000")) == bv("00")

    def test_self_containment(self):
        t = table("0110", "1001")
        assert bit(feasible_mask(t, bv("0110")), 1) == 0

    def test_exhaustive_single_row_pairs(self):
        # the mask is defined row by row, so (row, query) pairs are the
        # exhaustive unit; oracle is plain set containment of the 1s
        for w in range(1, 9):
            for row_value in range(1 << w):
                t = AssociativeTable([row_value], w)
                for query_value in range(1 << w):
                    q = BitVector(query_value, w)
                    feasible = (query_value & row_value) == query_value
                    assert bit(feasible_mask(t, q), 1) == (0 if feasible else 1)

    def test_multi_row_composition(self):
        rng = random.Random(21)
        for _ in range(100):
            t = rand_table(rng, rng.randint(1, 10), rng.randint(1, 12))
            q = BitVector(rng.getrandbits(t.width), t.width)
            mask = feasible_mask(t, q)
            for k, row in enumerate(t.rows, start=1):
                assert bit(mask, k) == (0 if (q.value & row.value) == q.value
                                       else 1)

    def test_width_mismatch(self):
        with pytest.raises(LengthMismatch):
            feasible_mask(table("110"), bv("11"))


class TestDiagnose:
    def test_single_finds_matching_column(self):
        t = table("110", "011", "100")
        out = diagnose(t, bv("110"), DiagnosisMode.SINGLE)
        assert out == bv("010")
        assert out.value

    def test_single_inconsistent(self):
        t = table("110", "011", "010")
        out = diagnose(t, bv("110"), DiagnosisMode.SINGLE)
        assert out == bv("000")
        assert not out.value

    def test_multiple(self):
        t = table("110", "011", "100")
        out = diagnose(t, bv("110"), DiagnosisMode.MULTIPLE)
        assert out == bv("011")
        assert out.value

    def test_mode_names_read_as_their_members(self):
        """A mode given by its name runs that mode; any other name is a
        ValueError, as it is for ``DiagnosisMode`` itself."""
        t, response = table("110", "011", "000"), bv("110")
        assert diagnose(t, response, "single") == \
            diagnose(t, response, DiagnosisMode.SINGLE) == bv("010")
        assert diagnose(t, response, "multiple") == \
            diagnose(t, response, DiagnosisMode.MULTIPLE) == bv("111")
        with pytest.raises(ValueError, match="'bogus' is not a valid "
                                             "DiagnosisMode"):
            diagnose(t, response, "bogus")

    def test_all_zero_response(self):
        t = table("110", "010")
        out = diagnose(t, bv("00"), DiagnosisMode.SINGLE)
        assert out == bv("001")  # complement of the row union

    def test_response_width_checked(self):
        with pytest.raises(LengthMismatch, match=r"^response width 3 does "
                                                 r"not match table height 2$"):
            diagnose(table("10", "01"), bv("101"))

    def test_single_matches_oracle_exhaustive_3x3(self):
        for t_value in range(1 << 9):
            t = AssociativeTable([(t_value >> (3 * i)) & 7 for i in range(3)],
                                 3)
            for r_value in range(8):
                response = BitVector(r_value, 3)
                got = diagnose(t, response, DiagnosisMode.SINGLE)
                assert str(got) == oracle_single_candidates(t, response)

    def test_single_matches_oracle_random(self):
        rng = random.Random(22)
        for _ in range(300):
            t = rand_table(rng, rng.randint(1, 9), rng.randint(1, 12))
            response = BitVector(rng.getrandbits(t.height), t.height)
            got = diagnose(t, response, DiagnosisMode.SINGLE)
            assert str(got) == oracle_single_candidates(t, response)

    def test_multiple_never_blames_passing_tests(self):
        rng = random.Random(23)
        for _ in range(300):
            t = rand_table(rng, rng.randint(1, 9), rng.randint(1, 12))
            response = BitVector(rng.getrandbits(t.height), t.height)
            got = diagnose(t, response, DiagnosisMode.MULTIPLE)
            for i, row in enumerate(t.rows):
                if not bit(response, i + 1):
                    assert got.value & row.value == 0


class TestBestMatch:
    def test_exact_match(self):
        t = table("0000", "1100", "1110")
        rows, quality = best_match(bv("1100"), t)
        assert rows == [2]
        assert quality.compacted.popcount == 0

    def test_derived_minimum(self):
        # oracle: ones = popcount(query ^ row); 1100 vs 0011 -> 4 ones,
        # 1100 vs 0111 -> 3 ones, so row 2 wins with 3
        t = table("0011", "0111")
        rows, quality = best_match(bv("1100"), t)
        assert rows == [2]
        assert quality.compacted.popcount == 3

    def test_ties_return_all_rows_in_order(self):
        t = table("1000", "0010", "1111")
        rows, quality = best_match(bv("0000"), t)
        assert rows == [1, 2]
        assert quality.compacted.popcount == 1

    def test_matches_popcount_oracle(self):
        rng = random.Random(24)
        for _ in range(200):
            t = rand_table(rng, rng.randint(1, 12), rng.randint(1, 12))
            q = BitVector(rng.getrandbits(t.width), t.width)
            rows, quality = best_match(q, t)
            scores = [(q ^ row).popcount for row in t.rows]
            best = min(scores)
            assert quality.compacted.popcount == best
            assert rows == [k + 1 for k, s in enumerate(scores) if s == best]

    def test_row_permutation_keeps_result_set(self):
        rng = random.Random(25)
        rows = [BitVector(rng.getrandbits(6), 6) for _ in range(8)]
        q = BitVector(rng.getrandbits(6), 6)
        base, base_quality = best_match(
            q, AssociativeTable([r.value for r in rows], 6))
        base_set = {str(rows[k - 1]) for k in base}
        for _ in range(10):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            got, quality = best_match(
                q, AssociativeTable([r.value for r in shuffled], 6))
            assert {str(shuffled[k - 1]) for k in got} == base_set
            assert quality.compacted.popcount == \
                base_quality.compacted.popcount


@pytest.mark.parametrize("width", [1, 63, 64, 65, 256])
def test_parse_table_matches_row_by_row_construction(width):
    rng = random.Random(f"parse/{width}")
    for height in (1, 2, 17):
        rows = [format(rng.getrandbits(width), f"0{width}b")
                for _ in range(height)]
        rows[0] = "1" * width
        rows[-1] = "0" * width
        names = [f"r{i}" for i in range(1, height + 1)]
        cols = [f"c{j}" for j in range(1, width + 1)]
        text = f"{height} {width}\n" + "\n".join(rows) + "\n"
        values = [int(row, 2) for row in rows]
        assert parse_table(text) == AssociativeTable(values, width)
        labelled = parse_table(text + "#labels\nrows: " + " ".join(names)
                               + "\ncols: " + " ".join(cols) + "\n")
        assert labelled == AssociativeTable(values, width, names, cols)
        assert [(type(r), r.length) for r in labelled.rows] == \
            [(BitVector, width)] * height


# rows int(row, 2) reads although they are not binary, and digits int()
# reads that are not ASCII
INT_ROWS = ["+101", "-101", "0b01", "0B01", "1_01", "10B1"]
NON_ASCII_DIGITS = ["\u0661", "\uff11", "\U0001d7cf"]  # 1 in three scripts
LABEL_NAMES = ["b", "B", "_", "-", "b_1", "B-2", "0b1", "-1", "+1", "x"]


def _random_table_text(rng: random.Random) -> str:
    """A table text near the edge of the format: odd breaks and padding,
    blank lines, and often one fault of a kind the parser must name."""
    width = rng.choice([1, 2, 3, 4, 4, 4, 5, 7, 8, 64])
    if rng.random() < 0.01:  # wider than int() converts in base 10
        width = max(sys.get_int_max_str_digits(), 4300) + 1
    height = rng.randint(1, 5)
    symbols = "01x" if rng.random() < 0.1 else "01"
    rows = ["".join(rng.choice(symbols) for _ in range(width))
            for _ in range(height)]
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        if not rows:
            break
        k = rng.randrange(len(rows))
        col = rng.randrange(width)
        fault = rng.randrange(7)
        if fault == 0:
            rows[k] = rng.choice(INT_ROWS) + "0" * max(0, width - 4)
        elif fault in (1, 2):
            bad = rng.choice(NON_ASCII_DIGITS if fault == 1
                             else [chr(c) for c in range(128)])
            rows[k] = rows[k][:col] + bad + rows[k][col + 1:]
        elif fault == 3:
            rows[k] = rows[k][:col] + rows[k][col + 1:]
        elif fault == 4:
            rows[k] = rows[k][:col] + rng.choice("01") + rows[k][col:]
        elif fault == 5:
            del rows[k]
        else:
            rows[k] = "#labels" + rows[k][7:]
    lines = [f"{height + rng.choice([0] * 8 + [1, -1])} {width}", *rows]
    trailer = rng.random()
    if trailer < 0.3:
        lines.append("#labels")
        for key, count in (("rows", height), ("cols", width)):
            if width < 100 and rng.random() < 0.7:
                count += rng.choice([0] * 8 + [1, -1])
                names = [f"{rng.choice(LABEL_NAMES)}{n}" for n in range(count)]
                lines.append(f"{key}: " + " ".join(names))
                if rng.random() < 0.1:  # the same label line twice
                    lines.append(lines[-1])
    elif trailer < 0.35:
        lines.append(rng.choice(["rows: a b", "#label", "+101"]))
    # most texts keep one break and ASCII padding, as the reader's fast
    # path needs ASCII text
    style = rng.choice(BREAKS)
    pads = PADS if rng.random() < 0.3 else PADS[:3]

    def brk() -> str:
        return rng.choice(BREAKS) if rng.random() < 0.1 else style

    text = ""
    for line in lines:
        while rng.random() < 0.2:  # blank and whitespace-only lines
            text += rng.choice(["", *pads]) + brk()
        if rng.random() < 0.2:
            line = rng.choice(pads) + line + rng.choice(["", *pads])
        text += line + brk()
    return text if rng.random() < 0.9 else text.rstrip("\n")


def test_parse_matches_reference_on_random_texts():
    """Both readers return what the row-by-row reference returns, or raise
    its exception with the same message, line and column."""
    rng = random.Random("parse-diff")
    parsed = failed = 0
    for _ in range(5000):
        text = _random_table_text(rng)
        got = outcome(parse_table, text)
        assert got == outcome(reference_parse_table, text), repr(text)
        assert outcome(parse_ternary_rows, text) == \
            outcome(reference_parse_ternary_rows, text), repr(text)
        parsed += isinstance(got, AssociativeTable)
        failed += not isinstance(got, AssociativeTable)
    assert min(parsed, failed) > 1000


class TestTableParsing:
    GOOD = "3 4\n1100\n1111\n0011\n#labels\nrows: t1 t2 t3\ncols: a b c d\n"

    def test_parse(self):
        t = parse_table(self.GOOD)
        assert (t.height, t.width) == (3, 4)
        assert t.row_labels == ("t1", "t2", "t3")
        assert t.col_labels == ("a", "b", "c", "d")

    def test_parse_without_labels(self):
        t = parse_table("2 2\n10\n01\n")
        assert t.row_labels is None

    def test_bad_symbol_position(self):
        with pytest.raises(ParseError) as err:
            parse_table("2 3\n110\n121\n")
        assert err.value.line == 3
        assert err.value.column == 2

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_table("two cols\n10\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse_table("3 2\n10\n01\n")

    def test_wrong_width(self):
        with pytest.raises(ParseError) as err:
            parse_table("1 4\n101\n")
        assert err.value.line == 2

    def test_label_line_must_fit_the_table(self):
        for trailer, line in (("rows: a b\n", 6), ("cols: x y\n", 6),
                              ("cols: a b c d\nrows: a a b\n", 7),
                              ("rows: a b c\nrows: a b c\n", 7),
                              ("cols: a b c d\ncols: a b c d\n", 7)):
            with pytest.raises(ParseError) as err:
                parse_table("3 4\n1100\n1111\n0011\n#labels\n" + trailer)
            assert err.value.line == line
        # the ternary reader holds label lines to the same rule
        with pytest.raises(ParseError) as err:
            parse_ternary_rows("2 2\n1x\n00\n#labels\nrows: a\n")
        assert (err.value.line, str(err.value)) == (5, "1 row labels for 2 rows")

    def test_ternary_rows(self):
        rows, labels = parse_ternary_rows("2 3\n1x0\nxx1\n")
        assert [str(r) for r in rows] == ["1x0", "xx1"]
        assert labels is None

    def test_binary_parse_rejects_x(self):
        with pytest.raises(ParseError):
            parse_table("1 3\n1x0\n")


# ---------------------------------------------------------------------------
# Tables in the plain layout, which a file's reader converts by row stride,
# and the texts that are not

def plain_text(height: int, width: int, seed: int = 0,
               trailer: str = "") -> tuple[str, list[int]]:
    """A table in the plain layout and its row values."""
    rng = random.Random(seed)
    values = [rng.getrandbits(width) for _ in range(height)]
    rows = "".join(format(v, f"0{width}b") + "\n" for v in values)
    return f"{height} {width}\n{rows}{trailer}", values


SHAPES = [(1, 1), (1, 5), (6, 1), (3, 63), (2, 64), (4, 65), (5, 8),
          (4096, 256)]


def labels_trailer(height: int, width: int) -> str:
    return ("#labels\nrows: " + " ".join(f"r{i}" for i in range(height))
            + "\ncols: " + " ".join(f"c{j}" for j in range(width)) + "\n")


@pytest.mark.parametrize("height, width", SHAPES)
@pytest.mark.parametrize("trailer", ["", "\n\n \n", "labels"],
                         ids=["bare", "blank-lines", "labels"])
def test_plain_layout_parses_by_stride(height, width, trailer):
    """A text in the plain layout, read as ``io.BytesIO(text.encode())``,
    is converted by the stream alone, with no row-by-row check, and hands
    ``update`` each byte once, in order."""
    if trailer == "labels":
        trailer = "\n" + labels_trailer(height, width)
    text, _ = plain_text(height, width, height * width, trailer)
    data, pieces = text.encode(), []
    with mock.patch.object(assoc, "_checked_rows",
                           wraps=assoc._checked_rows) as checked:
        got = read_table(io.BytesIO(data), pieces.append)
    assert not checked.called
    assert b"".join(pieces) == data
    assert got == parse_table(text)


# texts not in the plain layout, or not a table at all
NOT_PLAIN = [
    "2 3\n01\n0111\n",          # a short row then a long one: one "\n" off
    "2 3\n0110101\n",           # rows run together: no "\n" after a row
    "2 3\n011x101\n",
    "2 3\n\n01\n011\n",         # a blank line shifts the rows by one
    "2 3\n011\n10\n\n",         # ... and a short last row ends on a blank
    "2 3\n1\u06610\n011\n",    # a non-ASCII digit int() reads as 1
    "2 3\n+01\n011\n",          # int() signs, underscores and 0b prefixes
    "2 3\n-01\n011\n",
    "2 3\n1_0\n011\n",
    "2 3\n0b1\n011\n",
    "2 3\n0B1\n011\n",
    "2 3\n 01\n011\n",          # padding int() strips
    "2 3\n01 \n011\n",
    "2 3\n\t01\n011\n",
    "2 3\n01\r\n011\n",         # other whitespace and line breaks
    "2 3\n01\x0b\n011\n",
    "2 3\n01\x0c\n011\n",
    "2 3\n\x1c01\n011\n",
    "2 3\n\x1d01\n011\n",
    "2 3\n\x1e01\n011\n",
    "2 3\n\x1f01\n011\n",
    "2 3\r\n011\r\n101\r\n",   # CRLF
    "2 3\n011\n101",            # no final "\n"
    "2 3\r011\n101\n",          # a lone "\r" ends the header
    "2 3\x0b011\n101\n",
    "\n2 3\n011\n101\n",        # the header is not on line 1
    " \n2 3\n011\n101\n",
    "2 3\n0112\n101\n",         # plain bad symbols
    "2 3\n01x\n101\n",
    "2 4\n011\n101\n",
    "3 3\n011\n101\n",
    "99999999999999999999 3\n011\n",
]


@pytest.mark.parametrize("text", NOT_PLAIN)
def test_stride_path_leaves_other_texts_to_the_row_by_row_parse(text):
    """``parse_table`` checks every text row by row, as the reference
    does."""
    assert outcome(parse_table, text) == outcome(reference_parse_table, text)


# what the stride guard must turn away: symbols int() reads besides 0 and 1,
# every line break str.splitlines knows, padding, and other bad symbols
ODD = ["+", "-", "_", "b", "B", " ", "\t", "\r", "\x0b", "\x0c", "\x1c",
       "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u0661",
       "\uff11", "x", "2", "\n", "\r\n", "0b", "#labels"]


@st.composite
def table_texts(draw):
    """A table in the plain layout, with a labels trailer or not, and up to
    four edits of the kinds the readers must tell apart."""
    height, width = draw(st.sampled_from(SHAPES))
    trailer = draw(st.sampled_from(["", "labels", "bad-labels", "content"]))
    if trailer == "labels":
        trailer = labels_trailer(height, width)
    elif trailer == "bad-labels":
        trailer = labels_trailer(height + 1, width)
    elif trailer == "content":
        trailer = "0" * width + "\n"
    text, _ = plain_text(height, width, draw(st.integers(0, 2 ** 32)),
                         trailer)
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(
            ["insert", "replace", "delete", "break", "blank", "crlf",
             "chop"]))
        k = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[k])))
        if kind == "insert":
            lines[k] = lines[k][:at] + draw(st.sampled_from(ODD)) \
                + lines[k][at:]
        elif kind == "replace":
            lines[k] = lines[k][:at] + draw(st.sampled_from(ODD)) \
                + lines[k][at + 1:]
        elif kind == "delete":
            lines[k] = lines[k][:at] + lines[k][at + 1:]
        elif kind == "break":  # another break ends line k
            lines[k] += draw(st.sampled_from(["\r", "\x0b", "\x0c", "\x1c",
                                              "\x1d", "\x1e", "\x85"]))
        elif kind == "blank":
            lines.insert(k, draw(st.sampled_from(["", " ", "\t", "\x1f"])))
        elif kind == "crlf":
            lines = [line + "\r" for line in lines[:-1]] + lines[-1:]
        else:  # the last row without its "\n"
            if lines[-1] == "":
                lines.pop()
    return "\n".join(lines)


@pytest.mark.parametrize("symbol", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_int_rejects_the_separators_the_stride_guard_leaves_to_it(symbol):
    """``int(row, 2)`` rejects the ASCII file, group, record and unit
    separators before or after a row, so the stride guard does not search
    for them; an interpreter that accepted one would fail here."""
    for row in (symbol + "1", "1" + symbol):
        with pytest.raises(ValueError):
            int(row, 2)


def test_parsers_take_text_only():
    """Bytes are decoded where they are read; the text parsers refuse
    them."""
    for parse in (parse_table, parse_ternary_rows):
        with pytest.raises(TypeError):
            parse(b"1 1\n1\n")


# ---------------------------------------------------------------------------
# The same tables read from a file's ASCII bytes

def read_bytes(data: bytes):
    """``read_table``'s outcome for a binary file holding ``data``."""
    return outcome(read_table, io.BytesIO(data))


@settings(max_examples=400)
@given(table_texts().filter(str.isascii))
def test_bytes_parse_like_their_text(text):
    """Same table and labels, or the same exception, message, line and
    column, from a file's bytes read in blocks of 8 or 64 bytes or the
    default as from the text."""
    want = outcome(parse_table, text)
    for block in (8, 64, assoc._BLOCK):
        with mock.patch.object(assoc, "_BLOCK", block):
            assert read_bytes(text.encode()) == want


@pytest.mark.parametrize("height, width", SHAPES)
@pytest.mark.parametrize("trailer", ["", "\n\n \n", "labels"],
                         ids=["bare", "blank-lines", "labels"])
def test_plain_layout_bytes_parse_by_stride(height, width, trailer):
    """A file in the plain layout is read by the stream alone."""
    if trailer == "labels":
        trailer = "\n" + labels_trailer(height, width)
    text, values = plain_text(height, width, height * width, trailer)
    stride = assoc._stream_rows(io.BytesIO(text.encode()), lambda piece: 0)
    assert stride is not None
    assert stride[:2] == (values, width)
    assert read_bytes(text.encode()) == parse_table(text) == \
        outcome(reference_parse_table, text)


@pytest.mark.parametrize("text", [t for t in NOT_PLAIN if t.isascii()])
def test_bytes_not_in_the_plain_layout_parse_row_by_row(text):
    data = text.encode()
    assert assoc._stream_rows(io.BytesIO(data), lambda piece: 0) is None
    assert read_bytes(data) == outcome(reference_parse_table, text)


# bytes.splitlines and bytes.strip know fewer line breaks and spaces than
# str's; the stream decodes the header and the lines after the rows
@pytest.mark.parametrize("text", [
    "2 3\x0b011\n101\n",
    "\x1c\n2 3\n011\n101\n",
    "2 3\x0c\n011\n101\n",
    "2\x0c3\n011\n101\n",
    "2 3\n011\n101\n\x1e\n",
], ids=["vertical-tab-ends-header", "file-separator-line-first",
        "form-feed-ends-header", "form-feed-inside-header",
        "record-separator-after-rows"])
def test_header_and_trailer_bytes_read_as_text(text):
    assert outcome(parse_table, text) == outcome(reference_parse_table, text)
    assert read_bytes(text.encode()) == outcome(parse_table, text)


def test_parse_holds_no_string_per_line():
    """A 4096x256 table is read from its bytes beside them in under half
    their size: the rows are sliced out and converted one at a time."""
    data = plain_text(4096, 256)[0].encode()
    read_table(io.BytesIO(data))
    tracemalloc.start()
    try:
        read_table(io.BytesIO(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * len(data)


# ---------------------------------------------------------------------------
# The CLI's streamed table reads against its whole-file reads

def cli_outcome(load, *args):
    """What ``load(*args)`` returns, or the message of its input error."""
    try:
        return load(*args)
    except cli.InputError as exc:
        return str(exc)


def block_bytes(data: bytes, rows):
    """``assoc._BLOCK`` for ``rows`` rows per block of the table ``data``,
    by the width its header names; the default for ``rows`` None or a
    header that names no width."""
    try:
        width = int(data.split(b"\n", 1)[0].split()[1])
    except (IndexError, ValueError):
        return assoc._BLOCK
    return assoc._BLOCK if rows is None else rows * (width + 1)


def whole_read(path: str):
    """``cli._load``'s outcome for the table file at ``path`` read whole,
    its text parsed row by row."""
    with mock.patch.object(assoc, "_strided", lambda *block: None):
        return cli_outcome(cli._load, path, "table", True, parse_table)


def streamed_and_whole(path, data: bytes, rows):
    """(``cli._load``'s outcome with ``rows`` rows per block, the outcome of
    the whole-file read parsed row by row, the number of whole-file reads
    the streamed read fell back to) for a file holding ``data``."""
    path.write_bytes(data)
    whole = whole_read(str(path))
    gave_up, stream = [], assoc._stream_rows

    def watched(fh, update):
        parsed = stream(fh, update)
        gave_up.append(parsed is None)
        return parsed
    with mock.patch.object(assoc, "_BLOCK", block_bytes(data, rows)), \
            mock.patch.object(assoc, "_stream_rows", watched):
        streamed = cli_outcome(cli._load, str(path), "table")
    return streamed, whole, sum(gave_up)


ROWS_PER_BLOCK = pytest.mark.parametrize("rows", [1, 2, 3, None],
                                         ids=["1-row", "2-rows", "3-rows",
                                              "default"])


@ROWS_PER_BLOCK
@settings(max_examples=150)
@given(text=table_texts())
def test_streamed_reads_match_whole_reads(tmp_path_factory, rows, text):
    """Same digest and table, or the same error, from the CLI's streamed
    read of a table file as from reading it whole."""
    path = tmp_path_factory.getbasetemp() / "streamed.tbl"
    streamed, whole, _ = streamed_and_whole(path, text.encode(), rows)
    assert streamed == whole


@ROWS_PER_BLOCK
@pytest.mark.parametrize("text", NOT_PLAIN)
def test_streamed_reads_of_other_layouts_match_whole_reads(tmp_path, rows,
                                                           text):
    streamed, whole, fallback = streamed_and_whole(tmp_path / "t.tbl",
                                                   text.encode(), rows)
    assert (streamed, fallback) == (whole, 1)


def twelve_rows(variant: str) -> bytes:
    """A 12x8 table with a labels trailer, as the variant changes it."""
    text, _ = plain_text(12, 8, 12, labels_trailer(12, 8))
    data = text.encode()
    if variant == "crlf":
        return data.replace(b"\n", b"\r\n")
    row = {"plain": None, "first": 1, "middle": 6, "last": 12}[variant]
    if row is None:
        return data
    at = len(b"12 8\n") + (row - 1) * 9 + 4  # a symbol inside the row
    return data[:at] + b"\xb1" + data[at + 1:]


@ROWS_PER_BLOCK
@pytest.mark.parametrize("variant", ["plain", "crlf", "first", "middle",
                                     "last"],
                         ids=["plain", "crlf", "non-ascii-first-block",
                              "non-ascii-middle-block",
                              "non-ascii-last-block"])
def test_streamed_reads_fall_back_where_a_block_fails(tmp_path, rows,
                                                      variant):
    """A table in the plain layout is read by the stream alone; a CRLF
    table, or a non-ASCII byte in any block, sends the file to the
    whole-file read, with its digest, table or error."""
    streamed, whole, fallback = streamed_and_whole(tmp_path / "t.tbl",
                                                   twelve_rows(variant),
                                                   rows)
    assert (streamed, fallback) == (whole, variant != "plain")
    if variant in ("plain", "crlf"):
        assert streamed[1].height == 12
    else:
        assert streamed.startswith("cannot read ")


def test_an_input_that_cannot_seek_is_read_whole(tmp_path):
    """A pipe cannot be read again from its start, so it is read whole."""
    data = twelve_rows("plain")
    path = tmp_path / "t.tbl"
    path.write_bytes(data)
    want = whole_read(str(path))
    read, write = os.pipe()
    try:
        os.write(write, data)
        os.close(write)
        with mock.patch.object(assoc, "_checked_rows",
                               wraps=assoc._checked_rows) as whole:
            got = cli._load(f"/dev/fd/{read}", "table")
    finally:
        os.close(read)
    assert (got, whole.call_count) == (want, 1)


@pytest.mark.parametrize("width", [assoc._BLOCK, 10 ** 20])
def test_rows_wider_than_a_block_are_read_whole(tmp_path, width):
    """A header naming rows wider than a block sends the file to the
    whole-file read before any row is read, so a width far past the file's
    size is reported as the row-by-row check names it, never read."""
    path = tmp_path / "t.tbl"
    path.write_bytes(f"1 {width}\n".encode() + b"1" * assoc._BLOCK + b"\n")
    got = cli_outcome(cli._load, str(path), "table")
    assert got == whole_read(str(path))
    if width == assoc._BLOCK:
        assert got[1].values == ((1 << width) - 1,)
    else:
        assert got == (f"bad table at line 2: row has {assoc._BLOCK} "
                       f"symbols, expected {width}")


def late_failure(variant: str) -> bytes:
    """A 4096x256 table with a bad symbol or a non-ASCII byte in its last
    row, or with CRLF line ends."""
    data = plain_text(4096, 256)[0].encode()
    if variant == "crlf":
        return data.replace(b"\n", b"\r\n")
    at = len(data) - 100
    return data[:at] + {"symbol": b"2", "non-ascii": b"\xb1"}[variant] \
        + data[at + 1:]


@ROWS_PER_BLOCK
@pytest.mark.parametrize("variant", ["symbol", "non-ascii", "crlf"])
def test_a_table_the_stream_gives_up_on_is_hashed_and_converted_once(
        tmp_path, monkeypatch, rows, variant):
    """A table the stream gives up on is read whole from its start, but the
    SHA-256 object is fed each byte of the file once, and no row is
    converted by stride twice; the digest, table or error are those of a
    whole read."""
    data = late_failure(variant)
    path = tmp_path / "t.tbl"
    path.write_bytes(data)
    fed, converted = [], []
    sha256, strided = cli.sha256, assoc._strided

    def counted(first=b""):
        hashed = sha256(first)
        fed.append(len(first))

        def update(piece):
            fed.append(len(piece))
            hashed.update(piece)
        return SimpleNamespace(update=update, hexdigest=hashed.hexdigest)

    def conversion(block, height, width):
        converted.append(height)
        return strided(block, height, width)

    monkeypatch.setattr(cli, "sha256", counted)
    monkeypatch.setattr(assoc, "_strided", conversion)
    monkeypatch.setattr(assoc, "_BLOCK", block_bytes(data, rows))
    got = cli_outcome(cli._load, str(path), "table")
    monkeypatch.undo()
    if variant == "symbol":
        assert got == "bad table at line 4097, column 158: invalid symbol '2'"
    elif variant == "non-ascii":
        assert got == (f"cannot read {path}: 'ascii' codec can't decode byte "
                       f"0xb1 in position {len(data) - 100}: ordinal not in "
                       f"range(128)")
    else:
        assert got == ("sha256:" + hashlib.sha256(data).hexdigest()[:12],
                       parse_table(data.decode()))
    assert got == whole_read(str(path))
    assert sum(fed) == os.path.getsize(path)
    assert sum(converted) <= 4096
