"""Write the golden CLI transcripts: seeded input files under ``inputs/`` and
``cases.json``, the argv, stdout, stderr and exit code of each command line.

    python tests/golden/record.py

``tests/test_golden.py`` replays every case through ``veclog.cli.main``
with ``inputs/`` as the working directory and compares bytes.  The same
replay runs without pytest, on any interpreter, as

    python tests/golden/record.py --check

which prints the id of each case that differs and exits 1 if any does.  The
transcripts pin the CLI's behaviour: a case whose output changes is a
behaviour change, named as such where the change is recorded, never a file
to regenerate quietly.  Rerun this script to add cases, then check that
``git diff`` shows no change to an existing one that is not meant.  The
script puts the checkout's ``src/`` first on ``sys.path``, so it needs no
install and no PYTHONPATH.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
INPUTS = HERE / "inputs"
LONG = "1" * 4301  # one digit more than int() converts by default
PLACE = "<inputs>"  # stands for the absolute path of INPUTS in a transcript
INT_ROWS = [("plus", "+101"), ("minus", "-101"), ("prefix", "0b01"),
            ("upper-prefix", "0B01"), ("underscore", "1_01"),
            ("upper-b", "10B1")]


def _table(rng: random.Random, height: int, width: int,
           symbols: str = "01") -> str:
    rows = ["".join(rng.choice(symbols) for _ in range(width))
            for _ in range(height)]
    return f"{height} {width}\n" + "\n".join(rows) + "\n"


def _files(lamp) -> dict[str, str | bytes]:
    """Every input file, by name; seeded, so each run writes the same."""
    rng = random.Random(20261018)
    labelled = "3 4\n1100\n1111\n0011\n#labels\n"
    tern = "4 5\n1x0x1\nxxxxx\n10101\n0x1x0\n#labels\n"
    files: dict[str, str | bytes] = {
        # binary tables
        "labels.tbl": labelled + "rows: r1 r2 r3\ncols: a b c d\n",
        "plain.tbl": "3 4\n1100\n1111\n0011\n",
        "cols.tbl": labelled + "cols: a b c d\n",
        "worked.tbl": "1 12\n000011110101\n",
        "ties.tbl": "4 3\n101\n011\n101\n110\n",
        "spaced.tbl": "\n  3 4  \n\n 1100\n1111 \n\n0011\n\n",
        "crlf.tbl": "2 3\r\n101\r\n010\r\n",
        "rand-8x16.tbl": _table(rng, 8, 16),
        "rand-24x12.tbl": _table(rng, 24, 12),
        "rand-40x64.tbl": _table(rng, 40, 64),
        # ternary tables
        "tern.tbl": "2 2\nxx\n01\n",
        "tern-labels.tbl": tern + "rows: p q r s\ncols: a b c d e\n",
        "rand-tern-10x8.tbl": _table(rng, 10, 8, "01x"),
        # malformed tables
        "empty.tbl": "",
        "blank.tbl": "\n  \n\n",
        "hdr-one.tbl": "3\n110\n",
        "hdr-alpha.tbl": "3 a\n110\n",
        "hdr-neg.tbl": "-1 3\n110\n",
        "hdr-zero.tbl": "0 4\n",
        "hdr-long.tbl": f"{LONG} 4\n0101\n",
        "missing-rows.tbl": "3 4\n1100\n",
        "short-row.tbl": "2 4\n1100\n111\n",
        "bad-symbol.tbl": "2 3\n110\n121\n",
        "bad-tern-symbol.tbl": "2 3\n1x0\n0y1\n",
        "junk-trailer.tbl": "2 2\n10\n01\nrows: a b\n",
        "bad-key.tbl": "2 2\n10\n01\n#labels\nnames: a b\n",
        "nonascii.tbl": "2 2\n10\n01\n".encode("ascii") + b"\xc3\xa9\n",
        # rows that int(row, 2) reads, or nearly reads, though not binary
        **{f"int-{name}.tbl": f"2 4\n1100\n{row}\n" for name, row in INT_ROWS},
        # label trailers that do not fit (binary and ternary tables)
        "rows-short.tbl": labelled + "rows: r1 r2\n",
        "rows-long.tbl": labelled + "rows: r1 r2 r3 r4\n",
        "rows-empty.tbl": labelled + "rows:\n",
        "rows-dup.tbl": labelled + "rows: r1 r2 r1\n",
        "cols-short.tbl": labelled + "cols: a b c\n",
        "cols-dup.tbl": labelled + "cols: a b c c\n",
        "cols-then-rows.tbl": labelled + "cols: a b c d\nrows: r1 r2 r3 r4\n",
        "rows-twice.tbl": labelled + "rows: r1 r2 r3\nrows: s1 s2 s3\n",
        "cols-twice.tbl": labelled + "cols: a b c d\ncols: e f g h\n",
        "tern-rows-short.tbl": tern + "rows: p q r\n",
        "tern-rows-long.tbl": tern + "rows: p q r s t\n",
        "tern-rows-empty.tbl": tern + "rows:\n",
        "tern-rows-dup.tbl": tern + "rows: p q p s\n",
        "tern-cols-short.tbl": tern + "cols: a b\n",
        "tern-cols-long.tbl": tern + "cols: a b c d e f\n",
        "tern-cols-dup.tbl": tern + "cols: a b c a e\n",
        "tern-cols-then-rows.tbl": tern + "cols: a b c d e\nrows: p q\n",
        # fault tables for diagnose
        "diag.tbl": "3 3\n110\n011\n100\n#labels\ncols: f1 f2 f3\n",
        "diag-plain.tbl": "3 3\n110\n011\n010\n",
        "rand-12x20.tbl": _table(rng, 12, 20),
        # repair instances
        "memory.rep": "13 15 2 5\n" + "".join(
            f"{r} {c}\n" for r, c in sorted(
                {(2, 2), (2, 5), (2, 8), (4, 3), (5, 5), (5, 8), (7, 2),
                 (8, 5), (9, 3), (9, 7)})),
        "nothing.rep": "4 4 1 1\n",
        "dupes.rep": "4 4 1 1\n2 3\n2 3\n\n2 3\n",
        "budget.rep": "4 4 1 1\n1 1\n1 2\n1 3\n",
        "not-repairable.rep": "8 8 0 5\n" + "".join(
            f"{k} {k}\n" for k in range(1, 7)),
        "bound.rep": "12 12 1 1\n" + "".join(
            f"{k} {k}\n" for k in range(1, 13)),
        "past.rep": "13 12 13 12\n" + "".join(
            f"{k} {min(k, 12)}\n" for k in range(1, 14)),
        "past-budget.rep": "13 12 0 0\n" + "".join(
            f"{k} {min(k, 12)}\n" for k in range(1, 14)),
        "rand.rep": "10 10 3 3\n" + "".join(
            f"{rng.randint(1, 10)} {rng.randint(1, 10)}\n" for _ in range(8)),
        "rep-empty.rep": "",
        "rep-hdr3.rep": "4 4 1\n",
        "rep-hdr-alpha.rep": "4 4 one 1\n",
        "rep-hdr-long.rep": f"2 2 {LONG} 1\n1 1\n",
        "rep-zero.rep": "0 4 1 1\n",
        "rep-fault3.rep": "4 4 1 1\n1 2 3\n",
        "rep-fault-long.rep": f"2 2 1 1\n1 1\n{LONG} 2\n",
        "rep-outside.rep": "4 4 1 1\n5 5\n",
        "rep-nonascii.rep": b"4 4 1 1\n1 \xff\n",
        # programs
        "quality.lamp": lamp.quality_source(),
        "feasible.lamp": lamp.feasible_search_source(),
        "coverage.lamp": lamp.coverage_search_source(),
        "restrict.lamp": lamp.restrict_source(),
        "diag-single.lamp": lamp.diagnosis_source(4, "single"),
        "diag-multiple.lamp": lamp.diagnosis_source(4, "multiple"),
        "copy.lamp": "start: LOADROW ma A[1]\nNOT mb ma ; complement\n"
                     "SLC mc mb\nHALT\nSETALL md\n",
        "devor.lamp": "SETALL ma\nDEVOR mb 2 ma\nHALT\n",
        "store.lamp": "SETALL ma\nSTOREROW A[1] ma\nHALT\n",
        "spin.lamp": "LOOP 100\nNOP ma ma\nENDLOOP\nHALT\n",
        "loop5.lamp": "LOOP 5\n  NOT ma\n  DEVOR mb @ ma\n  XOR mc mc mb\n"
                      "ENDLOOP\nHALT\n",
        "loop5-row.lamp": "LOOP 5\n  OR ma A[@] ma\nENDLOOP\nHALT\n",
        "store-read.lamp": "LOOP *\n  NOT ma A[@]\n  STOREROW A[@] ma\n"
                           "  LOADROW mb A[@]\n  XOR mc mc mb\nENDLOOP\nHALT\n",
        "halt.lamp": "HALT\n",
        "row-fault.lamp": "LOADROW ma A[5]\nHALT\n",
        "bit-fault.lamp": "SETALL ma\nDEVOR mb 9 ma\nHALT\n",
        "asm-unknown.lamp": "FROB ma\n",
        "asm-arity.lamp": "AND ma\n",
        "asm-register.lamp": "NOT me\n",
        "asm-row.lamp": "LOADROW ma B[1]\n",
        "asm-row-zero.lamp": "LOADROW ma A[0]\n",
        "asm-at.lamp": "LOADROW ma A[@]\n",
        "asm-nest.lamp": "LOOP 2\nLOOP 2\nENDLOOP\nENDLOOP\n",
        "asm-endloop.lamp": "ENDLOOP\n",
        "asm-open.lamp": "NOP ma\nLOOP *\nNOP ma\n",
        "asm-label.lamp": "9x: HALT\n",
        "asm-dup-label.lamp": "a: NOP ma\na: HALT\n",
        "asm-devor.lamp": "DEVOR ma 0 mb\n",
        "asm-empty.lamp": "; nothing here\n\n",
        "asm-long.lamp": f"LOOP {LONG}\nNOP ma\nENDLOOP\nHALT\n",
        "nonascii.lamp": b"HALT ; \xe2\x9c\x93\n",
        # data for the programs
        "d3.tbl": "2 3\n110\n011\n",
        "d12.tbl": "3 12\n000011110101\n110011001100\n111100001111\n",
        "square.tbl": "4 4\n1100\n1110\n0011\n0110\n",
        "tall.tbl": "6 3\n100\n010\n001\n110\n011\n101\n",
        "aug.tbl": "4 4\n1101\n0110\n1011\n0000\n",
    }
    runnable = ["copy.lamp d3.tbl", "feasible.lamp square.tbl mb=0100",
                "coverage.lamp square.tbl", "restrict.lamp d3.tbl mb=101",
                "diag-single.lamp aug.tbl", "diag-multiple.lamp aug.tbl",
                "quality.lamp d12.tbl mb=110011001100 mc=000000000001",
                "halt.lamp d3.tbl ma=111"]
    cells = [runnable[k % len(runnable)] for k in range(16)]
    files["grid.txt"] = "# 16 cells, row-major\n\n" + "\n".join(cells) + "\n"
    fault = list(cells)
    fault[6] = "row-fault.lamp d3.tbl"  # cell (2,3)
    files["grid-fault.txt"] = "\n".join(fault) + "\n"
    files["grid-spin.txt"] = "\n".join(["spin.lamp d3.tbl"] * 16) + "\n"
    files["grid-15.txt"] = "\n".join(cells[:15]) + "\n"
    files["grid-17.txt"] = "\n".join(cells + cells[:1]) + "\n"
    for name, k, line in (("grid-short.txt", 9, "copy.lamp"),
                          ("grid-bad-program.txt", 3, "asm-arity.lamp d3.tbl"),
                          ("grid-bad-data.txt", 4, "copy.lamp bad-symbol.tbl"),
                          ("grid-bad-preset.txt", 12, "copy.lamp d3.tbl zz=1"),
                          ("grid-dup-preset.txt", 5,
                           "copy.lamp d3.tbl ma=111 MA=001"),
                          ("grid-missing.txt", 0, "absent.lamp d3.tbl")):
        lines = list(cells)
        lines[k] = line
        files[name] = "\n".join(lines) + "\n"
    # an error names the file's own line, comments and blank lines counted
    files["grid-short-commented.txt"] = "# grid\n\n" + files["grid-short.txt"]
    return files


def _cases() -> list[tuple[str, list[str]]]:
    """(id, argv) of every case."""
    cases: list[tuple[str, list[str]]] = []

    def add(name: str, *argv: str) -> None:
        cases.append((name, list(argv)))

    # query: reports
    for q in ("1100", "0000", "1111", "0011", "0100"):
        add(f"query-labels-{q}", "query", "labels.tbl", q)
    add("query-plain", "query", "plain.tbl", "1000")
    add("query-cols", "query", "cols.tbl", "0010")
    add("query-worked", "query", "worked.tbl", "110011001100")
    add("query-ties", "query", "ties.tbl", "111")
    add("query-spaced", "query", "spaced.tbl", "0011")
    add("query-crlf", "query", "crlf.tbl", "001")
    add("query-json", "query", "labels.tbl", "1100", "--json")
    add("query-json-plain", "query", "plain.tbl", "0110", "--json")
    rng = random.Random(7)
    for name, width in (("rand-8x16", 16), ("rand-24x12", 12),
                        ("rand-40x64", 64)):
        for k in range(3):
            q = "".join(rng.choice("0001") for _ in range(width))
            add(f"query-{name}-{k}", "query", f"{name}.tbl", q)
    # query: input errors
    for name in ("empty", "blank", "hdr-one", "hdr-alpha", "hdr-neg",
                 "hdr-zero", "hdr-long", "missing-rows", "short-row",
                 "bad-symbol", "junk-trailer", "bad-key", "nonascii"):
        add(f"query-{name}", "query", f"{name}.tbl", "1100")
    add("query-ternary-table", "query", "tern.tbl", "10")
    add("query-absent", "query", "absent.tbl", "1100")
    add("query-directory", "query", ".", "1100")
    add("query-bad-query", "query", "labels.tbl", "1120")
    add("query-empty-query", "query", "labels.tbl", "")
    add("query-wide-query", "query", "labels.tbl", "11000")
    add("query-x-query", "query", "labels.tbl", "1x00")
    # query --arith: reports
    for q in ("1x", "xx", "01", "10"):
        add(f"arith-tern-{q}", "query", "tern.tbl", q, "--arith")
    for q in ("1x0x1", "xxxxx", "00000", "10101"):
        add(f"arith-labels-{q}", "query", "tern-labels.tbl", q, "--arith")
    add("arith-binary-table", "query", "labels.tbl", "1x00", "--arith")
    add("arith-random", "query", "rand-tern-10x8.tbl", "1x0x10x1", "--arith")
    add("arith-spaced", "query", "spaced.tbl", "x011", "--arith")
    add("arith-json", "query", "tern-labels.tbl", "1x0x1", "--arith",
        "--json")
    # query --arith: input errors
    for name in ("empty", "hdr-alpha", "missing-rows", "short-row",
                 "bad-tern-symbol", "junk-trailer", "bad-key", "nonascii"):
        add(f"arith-{name}", "query", f"{name}.tbl", "1x", "--arith")
    add("arith-absent", "query", "absent.tbl", "1x", "--arith")
    add("arith-bad-query", "query", "tern.tbl", "1z", "--arith")
    add("arith-bad-query-middle", "query", "tern-labels.tbl", "1xz0x",
        "--arith")
    add("arith-empty-query", "query", "tern.tbl", "", "--arith")
    add("arith-wide-query", "query", "tern.tbl", "1x0", "--arith")
    # label trailers through both readers
    for name in ("rows-short", "rows-long", "rows-empty", "rows-dup",
                 "cols-short", "cols-dup", "cols-then-rows"):
        add(f"query-{name}", "query", f"{name}.tbl", "1100")
        add(f"arith-{name}", "query", f"{name}.tbl", "1x00", "--arith")
        add(f"diagnose-{name}", "diagnose", f"{name}.tbl", "110")
    for name in ("rows-short", "rows-long", "rows-empty", "rows-dup",
                 "cols-short", "cols-long", "cols-dup", "cols-then-rows"):
        add(f"arith-tern-{name}", "query", f"tern-{name}.tbl", "1x0x1",
            "--arith")
    add("arith-rows-short-bad-query", "query", "tern-rows-short.tbl", "1z",
        "--arith")
    add("arith-rows-short-wide-query", "query", "tern-rows-short.tbl", "1x",
        "--arith")
    add("arith-rows-dup-json", "query", "tern-rows-dup.tbl", "xxxxx",
        "--arith", "--json")
    for name in ("rows-twice", "cols-twice"):
        add(f"query-{name}", "query", f"{name}.tbl", "1100")
        add(f"arith-{name}", "query", f"{name}.tbl", "1x00", "--arith")
    # diagnose
    for mode in ("single", "multiple"):
        for r in ("110", "000", "111", "101", "010"):
            add(f"diagnose-{mode}-{r}", "diagnose", "diag.tbl", r,
                "--mode", mode)
        add(f"diagnose-plain-{mode}", "diagnose", "diag-plain.tbl", "110",
            "--mode", mode)
    add("diagnose-default-mode", "diagnose", "diag.tbl", "100")
    for k in range(4):
        r = "".join(rng.choice("0001") for _ in range(12))
        add(f"diagnose-rand-{k}", "diagnose", "rand-12x20.tbl", r,
            "--mode", "single" if k % 2 else "multiple")
    add("diagnose-json", "diagnose", "diag.tbl", "110", "--json")
    add("diagnose-json-inconsistent", "diagnose", "diag-plain.tbl", "110",
        "--json")
    add("diagnose-wide", "diagnose", "diag.tbl", "1101")
    add("diagnose-bad-response", "diagnose", "diag.tbl", "1a0")
    add("diagnose-empty-response", "diagnose", "diag.tbl", "")
    add("diagnose-bad-symbol", "diagnose", "bad-symbol.tbl", "10")
    add("diagnose-hdr-long", "diagnose", "hdr-long.tbl", "1")
    add("diagnose-nonascii", "diagnose", "nonascii.tbl", "10")
    add("diagnose-absent", "diagnose", "absent.tbl", "10")
    add("diagnose-ternary-table", "diagnose", "tern.tbl", "10")
    # repair: every outcome
    for name in ("memory", "nothing", "dupes", "budget", "not-repairable",
                 "bound", "past", "past-budget", "rand"):
        add(f"repair-{name}", "repair", f"{name}.rep")
        add(f"repair-{name}-oracle", "repair", f"{name}.rep", "--oracle")
    add("repair-json", "repair", "memory.rep", "--json")
    add("repair-oracle-json", "repair", "memory.rep", "--oracle", "--json")
    add("repair-budget-json", "repair", "budget.rep", "--oracle", "--json")
    # repair: input errors
    for name in ("rep-empty", "rep-hdr3", "rep-hdr-alpha", "rep-hdr-long",
                 "rep-zero", "rep-fault3", "rep-fault-long", "rep-outside",
                 "rep-nonascii"):
        add(f"repair-{name}", "repair", f"{name}.rep")
    add("repair-absent", "repair", "absent.rep")
    add("repair-table-file", "repair", "labels.tbl")
    # sim: reports
    add("sim-quality", "sim", "quality.lamp", "worked.tbl",
        "--reg", "mb=110011001100")
    add("sim-quality-row2", "sim", "quality.lamp", "d12.tbl",
        "--reg", "mb=110011001100", "--reg", "MA=000000000001")
    add("sim-quality-dots", "sim", "quality.lamp", "worked.tbl",
        "--reg", "mb=110011001100", "--dots")
    add("sim-quality-json", "sim", "quality.lamp", "worked.tbl",
        "--reg", "mb=110011001100", "--json")
    add("sim-feasible", "sim", "feasible.lamp", "square.tbl",
        "--reg", "mb=0100", "--dump-memory")
    add("sim-coverage", "sim", "coverage.lamp", "square.tbl")
    add("sim-restrict", "sim", "restrict.lamp", "d3.tbl", "--reg", "mb=101",
        "--dump-memory")
    add("sim-restrict-dots-json", "sim", "restrict.lamp", "d3.tbl",
        "--reg", "mb=101", "--dump-memory", "--dots", "--json")
    add("sim-diag-single", "sim", "diag-single.lamp", "aug.tbl")
    add("sim-diag-multiple", "sim", "diag-multiple.lamp", "aug.tbl",
        "--dump-memory")
    add("sim-copy", "sim", "copy.lamp", "d3.tbl", "--dots")
    add("sim-devor", "sim", "devor.lamp", "worked.tbl", "--dots")
    add("sim-store", "sim", "store.lamp", "d3.tbl", "--dump-memory")
    add("sim-spin", "sim", "spin.lamp", "d3.tbl")
    add("sim-max-steps-exact", "sim", "spin.lamp", "d3.tbl",
        "--max-steps", "301")
    add("sim-loop5", "sim", "loop5.lamp", "d12.tbl")  # no A[@]: past 3 rows
    add("sim-store-read", "sim", "store-read.lamp", "d12.tbl",
        "--dump-memory")
    # --max-steps landing, in a loop's second iteration, on the first, a
    # middle and the last instruction of the body and on its ENDLOOP (quality
    # has no loop), then one step short of the run and exactly the run
    for name, data, presets, limits in (
            ("quality", "worked.tbl", ("--reg", "mb=110011001100"),
             (1, 5, 10, 11)),
            ("feasible", "square.tbl", ("--reg", "mb=0100"),
             (6, 7, 8, 9, 18, 19)),
            ("coverage", "square.tbl", (), (9, 11, 13, 14, 27, 28)),
            ("restrict", "d3.tbl", ("--reg", "mb=101"), (4, 5, 6, 7, 8)),
            ("diag-single", "aug.tbl", (),
             (15, 19, 22, 23, 52, 56, 59, 60, 83, 84)),
            ("diag-multiple", "aug.tbl", (),
             (14, 17, 20, 21, 48, 52, 55, 56, 79, 80))):
        for limit in limits:
            add(f"sim-{name}-max-steps-{limit}", "sim", f"{name}.lamp", data,
                *presets, "--max-steps", str(limit))
    # sim: runtime faults
    add("sim-max-steps-fault", "sim", "spin.lamp", "d3.tbl",
        "--max-steps", "10")
    add("sim-max-steps-one", "sim", "copy.lamp", "d3.tbl", "--max-steps", "1")
    add("sim-max-steps-short", "sim", "spin.lamp", "d3.tbl",
        "--max-steps", "300")
    add("sim-row-fault", "sim", "row-fault.lamp", "d3.tbl")
    add("sim-bit-fault", "sim", "bit-fault.lamp", "d3.tbl")
    add("sim-feasible-tall", "sim", "feasible.lamp", "tall.tbl")
    add("sim-loop5-row", "sim", "loop5-row.lamp", "d12.tbl")
    add("sim-fault-json", "sim", "row-fault.lamp", "d3.tbl", "--json")
    # sim: input errors
    for name in ("unknown", "arity", "register", "row", "row-zero", "at",
                 "nest", "endloop", "open", "label", "dup-label", "devor",
                 "empty", "long"):
        add(f"sim-asm-{name}", "sim", f"asm-{name}.lamp", "d3.tbl")
    add("sim-nonascii-program", "sim", "nonascii.lamp", "d3.tbl")
    add("sim-program-before-data", "sim", "asm-unknown.lamp", "absent.tbl")
    add("sim-absent-program", "sim", "absent.lamp", "d3.tbl")
    add("sim-absent-data", "sim", "halt.lamp", "absent.tbl")
    add("sim-bad-data", "sim", "halt.lamp", "bad-symbol.tbl")
    add("sim-bad-data-labels", "sim", "halt.lamp", "rows-dup.tbl")
    add("sim-ternary-data", "sim", "halt.lamp", "tern.tbl")
    add("sim-program-only", "sim", "halt.lamp")
    add("sim-no-files", "sim")
    for preset in ("zz=000", "mb", "mb=10", "mb=1a0", "mb=", "=101"):
        add(f"sim-preset-{preset}", "sim", "halt.lamp", "d3.tbl",
            "--reg", preset)
    add("sim-preset-repeated", "sim", "halt.lamp", "d3.tbl",
        "--reg", "ma=111", "--reg", "MA=001")
    # sim --grid
    add("grid", "sim", "--grid", "grid.txt")
    add("grid-dots", "sim", "--grid", "grid.txt", "--dots")
    add("grid-json", "sim", "--grid", "grid.txt", "--json")
    add("grid-fault", "sim", "--grid", "grid-fault.txt")
    add("grid-spin-limit", "sim", "--grid", "grid-spin.txt",
        "--max-steps", "300")
    add("grid-spin", "sim", "--grid", "grid-spin.txt", "--max-steps", "301")
    for name in ("grid-15", "grid-17", "grid-short", "grid-short-commented",
                 "grid-bad-program", "grid-bad-data", "grid-bad-preset",
                 "grid-dup-preset", "grid-missing"):
        add(name, "sim", "--grid", f"{name}.txt")
    add("grid-absent", "sim", "--grid", "absent.txt")
    add("grid-nonascii", "sim", "--grid", "nonascii.tbl")
    # sim --grid with single-sequencer inputs, which a grid cannot use
    add("grid-with-program", "sim", "--grid", "grid.txt", "copy.lamp")
    add("grid-with-files", "sim", "--grid", "grid.txt", "copy.lamp", "d3.tbl")
    add("grid-with-reg", "sim", "--grid", "grid.txt", "--reg", "ma=101")
    add("grid-with-dump-memory", "sim", "--grid", "grid.txt", "--dump-memory")
    add("grid-with-all", "sim", "copy.lamp", "d3.tbl", "--grid", "grid.txt",
        "--reg", "ma=101", "--reg", "mb=011", "--dump-memory")
    # quality
    base = {"--fault-prob": "0.1", "--faults": "10", "--testability": "0.5",
            "--scan": "1", "--logic": "1"}

    def quality(name: str, *extra: str, **changes: str) -> None:
        values = {**base, **{f"--{k.replace('_', '-')}": v
                             for k, v in changes.items()}}
        argv = [a for pair in values.items() for a in pair]
        add(f"quality-{name}", "quality", *argv, *extra)

    quality("reference")
    quality("json", "--json")
    quality("certain-fault", fault_prob="1")
    quality("no-faults", faults="0", testability="0")
    quality("testable", testability="1", scan="3", logic="1")
    quality("scan-only", scan="2", logic="0")
    quality("logic-only", scan="0", logic="2.5")
    quality("small", scan="5e-324", logic="0")
    quality("big", scan="1e300", logic="3e300", testability="0.25")
    quality("prob-low", fault_prob="-0.1")
    quality("prob-high", fault_prob="1.5")
    quality("prob-nan", fault_prob="nan")
    quality("faults-negative", faults="-1")
    quality("faults-309-digits", faults="9" * 309)  # past the largest float
    quality("faults-4300-digits", faults="9" * 4300)  # the most int() reads
    quality("testability-high", testability="2")
    quality("testability-nan", testability="nan")
    quality("scan-negative", scan="-1")
    quality("logic-negative-inf", logic="-inf")  # argparse reads an option
    add("quality-logic-negative-inf-value", "quality", "--fault-prob", "0.1",
        "--faults", "10", "--testability", "0.5", "--scan", "1",
        "--logic=-inf")
    quality("both-zero", scan="0", logic="0")
    quality("scan-nan", scan="nan")
    quality("scan-inf", scan="inf")
    quality("logic-nan", logic="nan")
    quality("logic-inf", logic="inf")
    quality("overflow", scan="1e308", logic="1e308")
    quality("faults-alpha", faults="ten")
    quality("scan-alpha", scan="lots")
    add("quality-missing", "quality", "--fault-prob", "0.1")
    # argument errors
    add("no-subcommand")
    add("unknown-subcommand", "frob")
    add("max-steps-zero", "sim", "halt.lamp", "d3.tbl", "--max-steps", "0")
    add("max-steps-alpha", "sim", "halt.lamp", "d3.tbl",
        "--max-steps", "ten")
    add("diagnose-bad-mode", "diagnose", "diag.tbl", "110", "--mode", "all")
    add("repair-unknown-flag", "repair", "memory.rep", "--greedy")
    # rows that int(row, 2) reads, or nearly reads, through every table reader
    for name, _ in INT_ROWS:
        add(f"query-int-{name}", "query", f"int-{name}.tbl", "1100")
        add(f"diagnose-int-{name}", "diagnose", f"int-{name}.tbl", "10")
        add(f"sim-int-{name}", "sim", "halt.lamp", f"int-{name}.tbl")
    return cases


def run_case(argv: list[str]) -> dict:
    """One command line's stdout, stderr and exit code, from ``main``;
    argparse's own exits count as exit codes."""
    from veclog.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    here = os.getcwd()  # grid cells name their files by absolute path
    return {"stdout": out.getvalue().replace(here, PLACE),
            "stderr": err.getvalue().replace(here, PLACE), "exit": code}


def main() -> None:
    from veclog import lamp

    INPUTS.mkdir(exist_ok=True)
    for name, body in _files(lamp).items():
        data = body if isinstance(body, bytes) else body.encode("ascii")
        (INPUTS / name).write_bytes(data)
    os.environ["COLUMNS"] = "80"  # argparse wraps usage to the terminal
    os.chdir(INPUTS)
    cases = [{"id": name, "argv": argv, **run_case(argv)}
             for name, argv in _cases()]
    ids = [case["id"] for case in cases]
    assert len(set(ids)) == len(ids), "case ids must be unique"
    with open(HERE / "cases.json", "w", encoding="ascii") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
    print(f"{len(cases)} cases", file=sys.stderr)


def check() -> int:
    """Replay ``cases.json`` as ``tests/test_golden.py`` does; print the id
    of each case that differs and return 1 if any does, else 0."""
    os.environ["COLUMNS"] = "80"  # argparse wraps usage to the terminal
    cases = json.loads((HERE / "cases.json").read_text(encoding="ascii"))
    os.chdir(INPUTS)
    differ = [case["id"] for case in cases if run_case(case["argv"]) !=
              {key: case[key] for key in ("stdout", "stderr", "exit")}]
    for name in differ:
        print(name)
    print(f"{len(cases) - len(differ)} of {len(cases)} cases match",
          file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(check() if sys.argv[1:] == ["--check"] else main())
