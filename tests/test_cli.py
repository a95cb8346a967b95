import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_python
import veclog
from veclog import lamp
from veclog import cli
from veclog.cli import _accept, build_parser, main
from veclog.lamp import feasible_search_source, quality_source

QUERY_TABLE = "3 4\n1100\n1111\n0011\n#labels\nrows: r1 r2 r3\n"
DIAG_TABLE = "3 3\n110\n011\n100\n#labels\ncols: f1 f2 f3\n"
MEMORY_INSTANCE = "13 15 2 5\n" + "\n".join(
    f"{r} {c}" for r, c in sorted({(2, 2), (2, 5), (2, 8), (4, 3), (5, 5),
                                   (5, 8), (7, 2), (8, 5), (9, 3), (9, 7)})) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def value_of(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"{key!r} not in report:\n{out}")


class TestQuery:
    def test_row_match(self, capsys, tmp_path):
        table = write(tmp_path, "t.tbl", QUERY_TABLE)
        code, out, _ = run(capsys, "query", table, "1100")
        assert code == 0
        assert value_of(out, "row-1 (r1)") == "feasible"
        assert value_of(out, "row-3 (r3)") == "contradictory"
        assert value_of(out, "feasible-rows") == "1 2"
        assert value_of(out, "best-rows") == "1"
        assert value_of(out, "best-quality") == "(0/4)"
        assert value_of(out, "status") == "ok"

    def test_worked_pair_as_single_row_table(self, capsys, tmp_path):
        table = write(tmp_path, "t.tbl", "1 12\n000011110101\n")
        code, out, _ = run(capsys, "query", table, "110011001100")
        assert code == 0
        assert value_of(out, "best-quality") == "(6/12)"

    def test_malformed_symbol_names_position(self, capsys, tmp_path):
        table = write(tmp_path, "t.tbl", "2 3\n110\n121\n")
        code, _, err = run(capsys, "query", table, "110")
        assert code == 2
        assert "line 3" in err and "column 2" in err

    def test_width_mismatch(self, capsys, tmp_path):
        table = write(tmp_path, "t.tbl", QUERY_TABLE)
        code, _, err = run(capsys, "query", table, "11")
        assert code == 2
        assert "width" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "query", str(tmp_path / "absent.tbl"), "11")
        assert code == 2

    def test_arith_mode(self, capsys, tmp_path):
        table = write(tmp_path, "t.tbl", "2 2\nxx\n01\n")
        code, out, _ = run(capsys, "query", table, "1x", "--arith")
        assert code == 0
        assert "quality 5/6" in value_of(out, "row-1")
        assert value_of(out, "best-rows") == "1"
        assert value_of(out, "best-quality") == "5/6"

    def test_json_mode(self, capsys, tmp_path):
        table = write(tmp_path, "t.tbl", QUERY_TABLE)
        code, out, _ = run(capsys, "query", table, "1100", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["best-quality"] == "(0/4)"
        assert doc["status"] == "ok"

    def test_digest_is_of_the_file_bytes(self, capsys, tmp_path):
        table = write(tmp_path, "t.tbl", QUERY_TABLE)
        _, out, _ = run(capsys, "query", table, "1100")
        want = hashlib.sha256(QUERY_TABLE.encode("ascii")).hexdigest()[:12]
        assert value_of(out, "table-digest") == "sha256:" + want

    def test_holds_neither_bytes_nor_text_beside_the_table(self, capsys,
                                                           tmp_path):
        """On a 4096x256 table ``query`` peaks under 2.1x the file's size:
        the bytes and the text are held together only while the text is
        decoded, and the report is built beside the parsed table alone."""
        rng = random.Random(4096)
        rows = [format(rng.getrandbits(256), "0256b") for _ in range(4096)]
        table = write(tmp_path, "t.tbl", "4096 256\n" + "\n".join(rows)
                      + "\n")
        argv = ["query", table, rows[97]]
        assert main(argv) == 0  # the layers it imports are not counted
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 2.1 * os.path.getsize(table)

    def test_parses_the_bytes_it_hashes(self, capsys, tmp_path):
        """On a 4096x256 table ``query`` peaks under 1.4x the file's size:
        the digest and the parse read the same bytes, and no decoded copy
        of them is made."""
        rng = random.Random(4097)
        rows = [format(rng.getrandbits(256), "0256b") for _ in range(4096)]
        table = write(tmp_path, "t.tbl", "4096 256\n" + "\n".join(rows)
                      + "\n")
        argv = ["query", table, rows[97]]
        assert main(argv) == 0  # the layers it imports are not counted
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 1.4 * os.path.getsize(table)

    def test_streams_the_table_and_the_report(self, capsys, tmp_path):
        """On a 4096x256 table ``query`` peaks under 0.5x the file's size:
        the table is read and converted a block of rows at a time, and the
        report is made and written a slice of lines at a time, so neither
        the file's bytes nor the whole report is held."""
        rng = random.Random(4098)
        rows = [format(rng.getrandbits(256), "0256b") for _ in range(4096)]
        table = write(tmp_path, "t.tbl", "4096 256\n" + "\n".join(rows)
                      + "\n")
        argv = ["query", table, rows[97]]
        assert main(argv) == 0  # the layers it imports are not counted
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 0.5 * os.path.getsize(table)

    def test_more_rows_than_any_vector_cap(self, capsys, tmp_path):
        height = (1 << 16) + 1
        table = write(tmp_path, "t.tbl", f"{height} 1\n" + "1\n0\n" * (
            height // 2) + "1\n")
        code, out, _ = run(capsys, "query", table, "1")
        assert code == 0
        assert value_of(out, f"row-{height}") == "feasible"
        assert value_of(out, "best-quality") == "(0/1)"

    def test_byte_identical_reruns(self, capsys, tmp_path):
        table = write(tmp_path, "t.tbl", QUERY_TABLE)
        _, first, _ = run(capsys, "query", table, "1100")
        _, second, _ = run(capsys, "query", table, "1100")
        assert first == second


class TestDiagnose:
    def test_single(self, capsys, tmp_path):
        table = write(tmp_path, "d.tbl", DIAG_TABLE)
        code, out, _ = run(capsys, "diagnose", table, "110")
        assert code == 0
        assert value_of(out, "candidate-vector") == "010"
        assert value_of(out, "candidates") == "f2"
        assert value_of(out, "status") == "ok"

    def test_inconsistent(self, capsys, tmp_path):
        table = write(tmp_path, "d.tbl", "3 3\n110\n011\n010\n")
        code, out, _ = run(capsys, "diagnose", table, "110")
        assert code == 1
        assert value_of(out, "candidates") == "(none)"
        assert value_of(out, "status") == "inconsistent"

    def test_multiple(self, capsys, tmp_path):
        table = write(tmp_path, "d.tbl", DIAG_TABLE)
        code, out, _ = run(capsys, "diagnose", table, "110",
                           "--mode", "multiple")
        assert code == 0
        assert value_of(out, "candidate-vector") == "011"

    def test_response_width_mismatch(self, capsys, tmp_path):
        table = write(tmp_path, "d.tbl", DIAG_TABLE)
        code, _, err = run(capsys, "diagnose", table, "1101")
        assert code == 2
        assert "height" in err


class TestRepair:
    def test_memory_module(self, capsys, tmp_path):
        instance = write(tmp_path, "m.rep", MEMORY_INSTANCE)
        code, out, _ = run(capsys, "repair", instance)
        assert code == 0
        assert value_of(out, "greedy-mask") == "11111000000"
        assert value_of(out, "greedy-cover") == "C2 C3 C5 C7 C8"
        assert value_of(out, "plan") == "valid"
        assert "C2->spare-column-1" in value_of(out, "remap")
        assert value_of(out, "status") == "ok"

    def test_oracle_lists_all_minimum_covers(self, capsys, tmp_path):
        instance = write(tmp_path, "m.rep", MEMORY_INSTANCE)
        code, out, _ = run(capsys, "repair", instance, "--oracle")
        assert code == 0
        assert value_of(out, "oracle-minimum") == "5"
        assert value_of(out, "oracle-cover-count") == "3"
        assert value_of(out, "oracle-cover-1") == "C2 C3 C5 C7 C8"
        assert value_of(out, "oracle-cover-2") == "C2 C3 C5 C8 R9"
        assert value_of(out, "oracle-cover-3") == "C2 C5 C8 R4 R9"
        assert value_of(out, "ratio") == "5/5 = 1.000"

    def test_holds_each_fault_and_spare_once(self, capsys, tmp_path):
        """On a 1024x1024 memory with 1000 faults on 32 columns ``repair``
        peaks under 280 bytes per fault: the instance is read from one list
        of tokens, and the coverage table holds each spare once, slotted,
        with no row or column labels."""
        rng = random.Random(1024)
        cols = sorted(rng.sample(range(1, 1025), 32))
        faults = [(cell // 32 + 1, cols[cell % 32])
                  for cell in rng.sample(range(1024 * 32), 1000)]
        instance = write(tmp_path, "m.rep", "1024 1024 8 32\n" + "".join(
            f"{r} {c}\n" for r, c in faults))
        # a first run imports the layers, which the peak does not count
        assert main(["repair", instance]) == 0
        tracemalloc.start()
        try:
            assert main(["repair", instance]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 280 * len(faults)

    def test_not_repairable(self, capsys, tmp_path):
        # six faults on distinct rows and columns, but only five spare
        # columns and no spare rows
        text = "8 8 0 5\n" + "".join(f"{k} {k}\n" for k in range(1, 7))
        instance = write(tmp_path, "bad.rep", text)
        code, out, _ = run(capsys, "repair", instance)
        assert code == 1
        assert value_of(out, "status") == "not-repairable"

    def test_nothing_to_repair(self, capsys, tmp_path):
        instance = write(tmp_path, "ok.rep", "4 4 1 1\n")
        code, out, _ = run(capsys, "repair", instance)
        assert code == 0
        assert value_of(out, "status") == "nothing-to-repair"

    def test_bad_instance_file(self, capsys, tmp_path):
        instance = write(tmp_path, "bad.rep", "4 4 1\n")
        code, _, err = run(capsys, "repair", instance)
        assert code == 2


    def test_every_line_faulty_at_the_oracle_bound(self, capsys, tmp_path):
        # 24 candidate lines; no cover fits one spare row and one column
        text = "12 12 1 1\n" + "".join(f"{k} {k}\n" for k in range(1, 13))
        instance = write(tmp_path, "bound.rep", text)
        code, out, _ = run(capsys, "repair", instance)
        assert code == 1
        assert value_of(out, "status") == "not-repairable"

    def test_oracle_past_its_bound(self, capsys, tmp_path):
        # 25 candidate lines: the oracle declines, the greedy plan stands
        text = "13 12 13 12\n" + "".join(f"{k} {min(k, 12)}\n"
                                          for k in range(1, 14))
        instance = write(tmp_path, "past.rep", text)
        code, out, _ = run(capsys, "repair", instance, "--oracle")
        assert len(value_of(out, "spares").split()) == 25
        assert value_of(out, "oracle") == "too-large"
        assert code == 0 and value_of(out, "status") == "ok"


class TestSim:
    def test_quality_program(self, capsys, tmp_path):
        program = write(tmp_path, "q.lamp", quality_source())
        data = write(tmp_path, "d.tbl", "1 12\n000011110101\n")
        code, out, _ = run(capsys, "sim", program, data,
                           "--reg", "mb=110011001100")
        assert code == 0
        assert value_of(out, "mc") == "110000111001"
        assert value_of(out, "md") == "111111000000"
        assert int(value_of(out, "steps")) == 11

    def test_dots_rendering(self, capsys, tmp_path):
        program = write(tmp_path, "p.lamp", "SETALL ma\nDEVOR mb 2 ma\nHALT\n")
        data = write(tmp_path, "d.tbl", "1 4\n0000\n")
        code, out, _ = run(capsys, "sim", program, data, "--dots")
        assert code == 0
        assert value_of(out, "ma") == "1111"
        assert value_of(out, "mb") == ".1.."

    def test_dump_memory(self, capsys, tmp_path):
        program = write(tmp_path, "p.lamp",
                        "SETALL ma\nSTOREROW A[1] ma\nHALT\n")
        data = write(tmp_path, "d.tbl", "2 3\n000\n010\n")
        code, out, _ = run(capsys, "sim", program, data, "--dump-memory")
        assert code == 0
        assert value_of(out, "memory-1") == "111"
        assert value_of(out, "memory-2") == "010"

    def test_assembler_error_is_input_error(self, capsys, tmp_path):
        program = write(tmp_path, "p.lamp", "FROB ma\n")
        data = write(tmp_path, "d.tbl", "1 2\n00\n")
        code, _, err = run(capsys, "sim", program, data)
        assert code == 2
        assert "line 1" in err

    def test_runtime_fault_is_domain_error(self, capsys, tmp_path):
        program = write(tmp_path, "p.lamp",
                        "LOOP 100\nNOP ma ma\nENDLOOP\nHALT\n")
        data = write(tmp_path, "d.tbl", "1 2\n00\n")
        code, out, _ = run(capsys, "sim", program, data, "--max-steps", "10")
        assert code == 1
        assert "fault" in value_of(out, "status")

    def test_bad_register_preset(self, capsys, tmp_path):
        program = write(tmp_path, "p.lamp", "HALT\n")
        data = write(tmp_path, "d.tbl", "1 2\n00\n")
        code, _, err = run(capsys, "sim", program, data, "--reg", "zz=00")
        assert code == 2

    def test_grid_manifest(self, capsys, tmp_path):
        program = write(tmp_path, "p.lamp", "LOADROW ma A[1]\nHALT\n")
        data = write(tmp_path, "d.tbl", "1 3\n101\n")
        manifest = write(tmp_path, "grid.txt",
                         "# one line per cell\n" + "p.lamp d.tbl\n" * 16)
        code, out, _ = run(capsys, "sim", "--grid", manifest)
        assert code == 0
        assert value_of(out, "cell-1-1-ma") == "101"
        assert value_of(out, "cell-4-4-ma") == "101"
        assert value_of(out, "status") == "ok"

    def test_grid_error_names_cell(self, capsys, tmp_path):
        good = write(tmp_path, "p.lamp", "HALT\n")
        bad = write(tmp_path, "bad.lamp", "LOADROW ma A[5]\nHALT\n")
        data = write(tmp_path, "d.tbl", "1 3\n101\n")
        lines = ["p.lamp d.tbl"] * 16
        lines[6] = "bad.lamp d.tbl"  # cell (2,3)
        manifest = write(tmp_path, "grid.txt", "\n".join(lines) + "\n")
        code, out, _ = run(capsys, "sim", "--grid", manifest)
        assert code == 1
        assert "cell (2,3)" in value_of(out, "status")
        assert good  # paths referenced through the manifest

    def test_grid_assembles_each_program_file_once(self, capsys, tmp_path,
                                                   monkeypatch):
        write(tmp_path, "p.lamp", "LOADROW ma A[1]\nHALT\n")
        write(tmp_path, "q.lamp", "SETALL mb\nHALT\n")
        write(tmp_path, "d.tbl", "1 3\n101\n")
        manifest = write(tmp_path, "grid.txt",
                         "p.lamp d.tbl\nq.lamp d.tbl\n" * 8)
        sources = []
        assemble = lamp.assemble
        monkeypatch.setattr(lamp, "assemble",
                            lambda text: sources.append(text) or
                            assemble(text))
        code, out, _ = run(capsys, "sim", "--grid", manifest)
        assert (code, len(sources)) == (0, 2)
        assert value_of(out, "cell-4-3-ma") == "101"
        assert value_of(out, "cell-4-4-mb") == "111"

    @pytest.mark.parametrize("extra, named", [
        (["p.lamp"], "p.lamp"),
        (["p.lamp", "d.tbl"], "p.lamp, d.tbl"),
        (["--reg", "ma=101"], "--reg ma=101"),
        (["--dump-memory"], "--dump-memory"),
    ])
    def test_grid_rejects_single_sequencer_inputs(self, capsys, tmp_path,
                                                  monkeypatch, extra, named):
        write(tmp_path, "p.lamp", "HALT\n")
        write(tmp_path, "d.tbl", "1 3\n101\n")
        write(tmp_path, "grid.txt", "p.lamp d.tbl\n" * 16)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "sim", "--grid", "grid.txt", *extra)
        assert (code, out) == (2, "")
        assert err == f"error: sim --grid does not use {named}\n"

    def test_grid_needs_sixteen_lines(self, capsys, tmp_path):
        manifest = write(tmp_path, "grid.txt", "p.lamp d.tbl\n" * 3)
        code, _, err = run(capsys, "sim", "--grid", manifest)
        assert code == 2

    @pytest.mark.parametrize("steps", ["0", "-3", "ten"])
    def test_max_steps_must_be_positive(self, capsys, tmp_path, steps):
        program = write(tmp_path, "p.lamp", "HALT\n")
        data = write(tmp_path, "d.tbl", "1 2\n00\n")
        with pytest.raises(SystemExit) as exc:
            main(["sim", program, data, "--max-steps", steps])
        assert exc.value.code == 2
        assert "--max-steps" in capsys.readouterr().err

    def test_sim_needs_both_files(self, capsys, tmp_path):
        program = write(tmp_path, "p.lamp", "HALT\n")
        code, _, err = run(capsys, "sim", program)
        assert code == 2


class TestUnreadableInput:
    """Missing and non-ASCII files exit 2 with one ``cannot read`` line."""

    def test_missing_repair_instance(self, capsys, tmp_path):
        path = str(tmp_path / "absent.rep")
        code, out, err = run(capsys, "repair", path)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {path}: ")

    def test_missing_program(self, capsys, tmp_path):
        path = str(tmp_path / "absent.lamp")
        data = write(tmp_path, "d.tbl", "1 2\n00\n")
        code, _, err = run(capsys, "sim", path, data)
        assert code == 2
        assert err.startswith(f"error: cannot read {path}: ")

    def test_missing_data(self, capsys, tmp_path):
        program = write(tmp_path, "p.lamp", "HALT\n")
        path = str(tmp_path / "absent.tbl")
        code, _, err = run(capsys, "sim", program, path)
        assert code == 2
        assert err.startswith(f"error: cannot read {path}: ")

    def test_program_error_precedes_data_error(self, capsys, tmp_path):
        program = write(tmp_path, "p.lamp", "FROB ma\n")
        code, _, err = run(capsys, "sim", program, str(tmp_path / "absent"))
        assert code == 2
        assert "line 1" in err and "cannot read" not in err

    @pytest.mark.parametrize("argv", [
        ("query", "{bad}", "1100"),
        ("query", "{bad}", "1x", "--arith"),
        ("diagnose", "{bad}", "110"),
        ("repair", "{bad}"),
        ("sim", "{bad}", "{table}"),
        ("sim", "{program}", "{bad}"),
        ("sim", "--grid", "{bad}"),
    ])
    def test_non_ascii_byte(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(QUERY_TABLE.encode("ascii") + b"\xc3\xa9\n")
        paths = {"bad": str(bad),
                 "table": write(tmp_path, "t.tbl", QUERY_TABLE),
                 "program": write(tmp_path, "p.lamp", "HALT\n")}
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {bad}: ")


class TestLabelTrailer:
    @pytest.mark.parametrize("trailer, line", [
        ("rows: r1 r2\n", 6),
        ("rows: r1 r2 r1\n", 6),
        ("cols: a b c d\nrows: r1 r2 r3 r4\n", 7),
        ("cols: a b c\n", 6),
        ("cols: a b c c\n", 6),
    ])
    @pytest.mark.parametrize("command", ["query", "diagnose"])
    def test_bad_label_line_is_input_error(self, capsys, tmp_path, trailer,
                                           line, command):
        text = "3 4\n1100\n1111\n0011\n#labels\n" + trailer
        table = write(tmp_path, "t.tbl", text)
        arg = "1100" if command == "query" else "110"
        code, out, err = run(capsys, command, table, arg)
        assert code == 2 and out == ""
        assert f"at line {line}: " in err and "labels" in err

    def test_arith_needs_a_label_per_row(self, capsys, tmp_path):
        table = write(tmp_path, "t.tbl", "2 2\n1x\n00\n#labels\nrows: a\n")
        code, out, err = run(capsys, "query", table, "1x", "--arith")
        assert (code, out) == (2, "")
        assert err == "error: bad table at line 5: 1 row labels for 2 rows\n"
        # longer, repeated and empty lists are input errors too
        for names, message in (("a b c", "3 row labels for 2 rows"),
                               ("a a", "duplicate row labels"),
                               ("", "0 row labels for 2 rows")):
            table = write(tmp_path, "t.tbl", "2 2\n1x\n00\n#labels\n"
                                             f"rows: {names}\n")
            code, out, err = run(capsys, "query", table, "1x", "--arith")
            assert (code, out) == (2, "")
            assert err == f"error: bad table at line 5: {message}\n"

    @pytest.mark.parametrize("trailer, line, message", [
        ("rows: r1 r2\n", 6, "2 row labels for 3 rows"),
        ("rows: r1 r2 r3 r4\n", 6, "4 row labels for 3 rows"),
        ("rows:\n", 6, "0 row labels for 3 rows"),
        ("rows: r1 r2 r1\n", 6, "duplicate row labels"),
        ("cols: a b c\n", 6, "3 column labels for 4 columns"),
        ("cols: a b c d e\n", 6, "5 column labels for 4 columns"),
        ("cols: a b c d\nrows: r1 r2\n", 7, "2 row labels for 3 rows"),
    ])
    def test_one_label_rule_for_both_readers(self, capsys, tmp_path,
                                             trailer, line, message):
        table = write(tmp_path, "t.tbl",
                      "3 4\n1100\n1111\n0011\n#labels\n" + trailer)
        want = (2, "", f"error: bad table at line {line}: {message}\n")
        assert run(capsys, "query", table, "1100") == want
        assert run(capsys, "query", table, "1100", "--arith") == want


class TestHugeNumbers:
    """A number of more digits than ``int()`` converts (4300 by default) is
    an input error at its line, not a traceback."""

    LONG = "1" * 4301

    @pytest.mark.parametrize("argv, text, where", [
        (("query", "{file}", "0101"), "{n} 4\n0101\n", "bad table at line 1"),
        (("repair", "{file}"), "2 2 {n} 1\n1 1\n", "bad instance at line 1"),
        (("repair", "{file}"), "2 2 1 1\n1 1\n{n} 2\n",
         "bad instance at line 3"),
        (("sim", "{file}", "{table}"), "LOOP {n}\nNOP\nENDLOOP\nHALT\n",
         "line 1"),
        (("sim", "{file}", "{table}"), "LOADROW ma A[{n}]\nHALT\n",
         "line 1"),
    ])
    def test_input_error_at_its_line(self, capsys, tmp_path, argv, text,
                                     where):
        paths = {"file": write(tmp_path, "long.txt", text.format(n=self.LONG)),
                 "table": write(tmp_path, "t.tbl", "1 4\n0101\n")}
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2 and out == ""
        assert f"{where}: number has 4301 digits, more than the 4300 " \
               f"allowed" in err


# ---------------------------------------------------------------------------
# Fuzz of the table and repair-instance readers through `veclog`: any text
# ends in exit 0, 1 or 2, and a rerun prints the same report.  Inputs start
# well formed and have words swapped for, and junk lines drawn from, digits,
# digit runs past int()'s 4300-digit limit and 0/1/x words.

_WORD = st.sampled_from([*"0123456789", "x", "01", "1x0",
                         "1" * 4301, "9" * 4302])


def _garbled(draw, lines):
    """The lines' words joined by spaces, about one word in twelve swapped
    for a vocabulary word and a junk line after about one line in twelve."""
    text = []
    for words in lines:
        text.append(" ".join(draw(_WORD) if draw(st.integers(0, 11)) == 11
                             else str(w) for w in words))
        if draw(st.integers(0, 11)) == 11:
            text.append(" ".join(draw(st.lists(_WORD, max_size=4))))
    return "\n".join(text) + "\n"


@st.composite
def _repair_text(draw):
    # sizes up to 9x9 keep every memory within the oracle's 24 lines
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    header = [rows, cols, draw(st.integers(0, 9)), draw(st.integers(0, 9))]
    faults = draw(st.lists(st.tuples(st.integers(1, rows),
                                     st.integers(1, cols)), max_size=12))
    return _garbled(draw, [header, *faults])


@st.composite
def _query_text(draw):
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    symbols = st.sampled_from(draw(st.sampled_from(["01", "01x"])))
    rows = draw(st.lists(st.text(symbols, min_size=width, max_size=width),
                         min_size=height, max_size=height))
    query = draw(st.one_of(st.text(symbols, min_size=width, max_size=width),
                           st.text("01x", max_size=4)))
    return _garbled(draw, [[height, width], *([r] for r in rows)]), query


def _never_escapes(path, text, argvs):
    path.write_text(text, encoding="ascii")
    for argv in argvs:
        reports = []
        for _ in range(2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2)
            reports.append(out.getvalue())
        assert reports[0] == reports[1]


@settings(max_examples=300)
@given(_repair_text())
def test_repair_never_escapes(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.rep"
    _never_escapes(path, text, [["repair", str(path)],
                                ["repair", str(path), "--oracle"]])


@settings(max_examples=300)
@given(_query_text())
def test_query_never_escapes(tmp_path_factory, text_and_query):
    text, query = text_and_query
    path = tmp_path_factory.getbasetemp() / "fuzz.tbl"
    _never_escapes(path, text, [["query", str(path), query],
                                ["query", str(path), query, "--arith"]])


@st.composite
def _diagnose_text(draw):
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.text("01", min_size=width, max_size=width),
                         min_size=height, max_size=height))
    names = draw(st.lists(st.sampled_from(["f1", "f2", "f3", "f4"]),
                          max_size=5))
    trailer = draw(st.sampled_from([[], [["#labels"], ["cols:", *names]]]))
    response = draw(st.one_of(st.text("01", min_size=height,
                                      max_size=height),
                              st.text("01x", max_size=4)))
    text = _garbled(draw, [[height, width], *([r] for r in rows), *trailer])
    return text, response


@settings(max_examples=300)
@given(_diagnose_text())
def test_diagnose_never_escapes(tmp_path_factory, text_and_response):
    text, response = text_and_response
    path = tmp_path_factory.getbasetemp() / "fuzz.diag"
    _never_escapes(path, text, [["diagnose", str(path), response],
                                ["diagnose", str(path), response,
                                 "--mode", "multiple"]])


# Files a fuzzed grid manifest names: two runnable programs and a table, a
# program that faults at run time, one that does not assemble and a table
# that does not parse.  Every cell starts runnable and at most one line is
# redrawn: from every file name (repeats weight the run-time fault), a
# missing one and bad register presets, or as a short, blank or comment
# line.  The manifest may also have a line too many or too few.
_GRID_FILES = {
    "feasible.lamp": feasible_search_source(),
    "copy.lamp": "LOADROW ma A[1]\nNOT mb ma\nHALT\n",
    "fault.lamp": "LOADROW ma A[3]\nHALT\n",
    "bad.lamp": "AND ma\n",
    "d.tbl": "2 3\n110\n011\n",
    "bad.tbl": "1 3\n1x1\n",
}


@st.composite
def _cell_line(draw, programs=("fault.lamp", "fault.lamp", "copy.lamp",
                               "bad.lamp", "absent.lamp", "d.tbl"),
               data=("d.tbl", "d.tbl", "bad.tbl", "absent.tbl"),
               presets=("mb=100", "mc=011", "ma=1", "zz=000", "mb")):
    return [draw(st.sampled_from(programs)), draw(st.sampled_from(data)),
            *draw(st.lists(st.sampled_from(presets), max_size=2))]


@st.composite
def _manifest_text(draw):
    runnable = _cell_line(("feasible.lamp", "copy.lamp"), ("d.tbl",),
                          ("mb=100", "mc=011"))
    cells = 16 + draw(st.sampled_from([0] * 6 + [-1, 1]))
    lines = [draw(runnable) for _ in range(cells)]
    odd = draw(st.integers(0, cells))
    if odd < cells:
        lines[odd] = draw(_cell_line()) if draw(st.integers(0, 7)) < 7 \
            else draw(st.lists(st.sampled_from(["#", "d.tbl"]), max_size=2))
    return "\n".join(" ".join(words) for words in lines) + "\n"


@settings(max_examples=300)
@given(_manifest_text())
def test_grid_never_escapes(tmp_path_factory, text):
    workdir = tmp_path_factory.getbasetemp()
    for name, body in _GRID_FILES.items():
        (workdir / name).write_text(body, encoding="ascii")
    path = workdir / "fuzz.grid"
    _never_escapes(path, text, [["sim", "--grid", str(path),
                                 "--max-steps", "1000"]])


# ---------------------------------------------------------------------------
# Fuzz of whole command lines: a subcommand with its positionals, then its
# flags and options in any order, each value usually one that works and
# about one time in eight an odd one (float strings such as nan, inf, -inf
# and -0, a count past the largest float or past int()'s 4300 digits, a bad
# register preset).  About one argv in four has a shape that only argparse
# reads: an abbreviated flag, --opt=value, a stray --, -h or --help, or a
# positional moved in among the options.  Every argv ends in exit 0, 1 or 2,
# argparse's own exit included, and a rerun prints the same bytes; where
# _accept reads the argv itself, it reads what argparse reads.

_ARGV_FILES = {
    "t.tbl": "3 4\n1100\n1111\n0011\n#labels\nrows: r1 r2 r3\n",
    "tern.tbl": "2 4\n1x0x\nxxxx\n",
    "bad.tbl": "2 4\n1100\n1z00\n",
    "d.tbl": "3 3\n110\n011\n100\n#labels\ncols: f1 f2 f3\n",
    "m.rep": "6 6 2 2\n1 1\n2 1\n5 5\n",
    "bad.rep": "6 6 2\n1 1\n",
    "copy.lamp": "LOADROW ma A[1]\nNOT mb ma\nHALT\n",
    "spin.lamp": "LOOP 100\nNOP ma ma\nENDLOOP\nHALT\n",
    "fault.lamp": "LOADROW ma A[9]\nHALT\n",
    "bad.lamp": "AND ma\n",
    "grid.txt": "copy.lamp t.tbl\n" * 15 + "spin.lamp t.tbl mb=0011\n",
    "grid-fault.txt": "copy.lamp t.tbl\n" * 15 + "fault.lamp t.tbl\n",
}
_ODD = ["nan", "inf", "-inf", "1e308", "-0", "-1", "2", "ten", ""]
_HUGE = ["9" * 308, "9" * 309, "9" * 4300, "9" * 4301]


@st.composite
def _value(draw, usual):
    """One of ``usual``, or about one time in eight an odd value."""
    odd = draw(st.integers(0, 7)) == 7
    return draw(st.sampled_from(_ODD if odd else usual))


@st.composite
def _argv(draw):
    pick = st.sampled_from
    command = draw(pick(["query", "diagnose", "repair", "sim", "quality"]))
    options = [["--json"]]
    if command == "query":
        head = [draw(pick(["t.tbl", "tern.tbl", "bad.tbl", "absent.tbl"])),
                draw(pick(["1100", "1x00", "0000", "1z00", "11", ""]))]
        options.append(["--arith"])
    elif command == "diagnose":
        head = [draw(pick(["d.tbl", "t.tbl", "bad.tbl"])),
                draw(pick(["110", "101", "000", "1x0", "11"]))]
        options += [["--mode", draw(_value(["single", "multiple"]))]
                    for _ in range(draw(st.integers(1, 2)))]
    elif command == "repair":
        head = [draw(pick(["m.rep", "bad.rep", "absent.rep", "t.tbl"]))]
        options.append(["--oracle"])
    elif command == "sim":
        head = draw(pick([["copy.lamp", "t.tbl"], ["spin.lamp", "t.tbl"],
                          ["fault.lamp", "t.tbl"], ["bad.lamp", "t.tbl"],
                          ["copy.lamp", "bad.tbl"], ["copy.lamp"], []]))
        if not head:
            options.append(["--grid", draw(pick(["grid.txt",
                                                 "grid-fault.txt"]))])
        options += [["--reg", draw(_value(["mb=1100", "MA=0011", "mb=1x00",
                                           "zz=0000", "mb", "mc=11"]))],
                    ["--reg", draw(_value(["mc=0001", "md=1111"]))],
                    ["--max-steps", draw(_value(["1", "5", "300", "301",
                                                 "100000", "9" * 4301]))],
                    ["--dump-memory"], ["--dots"]]
    else:
        head = []
        options += [
            ["--fault-prob", draw(_value(["0.1", "0", "1", "-0", "5e-324"]))],
            ["--faults", draw(_value([*_HUGE, "0", "10"]))],
            ["--testability", draw(_value(["0.5", "1", "0", "-0"]))],
            ["--scan", draw(_value(["1", "0", "2.5", "1e308", "-0"]))],
            ["--logic", draw(_value(["1", "3", "1e308", "-0"]))]]
    # one option in three is short of a flag (quality's are required), one
    # in eight has an unknown flag
    skip = draw(st.integers(0, 3 * len(options) - 1))
    kept = [o for i, o in enumerate(options) if i != skip]
    if draw(st.integers(0, 7)) == 7:
        kept.append(["--frob"])
    words = [[a] for a in head] + draw(st.permutations(kept))
    shape = draw(st.integers(0, 11))
    at = draw(st.integers(0, len(words) - 1))
    if shape == 0 and words[at][0].startswith("--"):  # --ora, --dump, ...
        flag = words[at][0]
        words[at] = [flag[:draw(st.integers(3, len(flag) - 1))],
                     *words[at][1:]]
    elif shape == 1 and len(words[at]) == 2:  # --mode=single
        words[at] = ["=".join(words[at])]
    elif shape == 2:
        words.insert(at, [draw(pick(["--", "-h", "--help"]))])
    elif shape == 3 and head:  # an option before or between positionals
        words.insert(draw(st.integers(0, len(head) - 1)), words.pop(at))
    return [command, *(a for word in words for a in word)]


def _fields(args):
    """An argument namespace as comparable text: nan equals nan, 0.0 is
    not -0.0."""
    return {key: (type(value), repr(value))
            for key, value in vars(args).items()}


@settings(max_examples=300)
@given(_argv())
def test_argv_never_escapes(tmp_path_factory, argv):
    workdir = tmp_path_factory.getbasetemp() / "argv"
    workdir.mkdir(exist_ok=True)
    for name, body in _ARGV_FILES.items():
        (workdir / name).write_text(body, encoding="ascii")
    argv = [str(workdir / a) if a in _ARGV_FILES or a.startswith("absent")
            else a for a in argv]
    accepted = _accept(argv)
    if accepted is not None:
        assert _fields(accepted) == _fields(build_parser().parse_args(argv))
    runs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own exit
                code = exc.code
        assert code in (0, 1, 2)
        runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv", [
    # the benchmark's command lines
    ["query", "t.tbl", "1100"],
    ["diagnose", "d.tbl", "110", "--mode", "multiple"],
    ["repair", "m.rep"],
    ["repair", "m.rep", "--oracle"],
    ["sim", "--grid", "grid.txt"],
    # each subcommand with every option given
    ["query", "tern.tbl", "1x00", "--arith", "--json"],
    ["diagnose", "d.tbl", "110", "--mode", "single", "--json"],
    ["repair", "m.rep", "--oracle", "--json"],
    ["sim", "copy.lamp", "t.tbl", "--grid", "grid.txt", "--reg", "mb=1100",
     "--reg", "MA=0011", "--max-steps", "300", "--dump-memory", "--dots",
     "--json"],
    ["quality", "--fault-prob", "0.1", "--faults", "10", "--testability",
     "0.5", "--scan", "1", "--logic", "1", "--json"],
], ids=" ".join)
def test_plain_command_lines_skip_argparse(argv):
    """The command lines users and the benchmark write are read without
    argparse, into what argparse would read."""
    accepted = _accept(argv)
    assert accepted is not None
    assert _fields(accepted) == _fields(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["frob"], ["query", "-h"], ["repair", "m.rep", "--help"],
    ["repair", "m.rep", "--ora"], ["sim", "--grid", "grid.txt", "--dump"],
    ["diagnose", "d.tbl", "110", "--mode=single"],
    ["diagnose", "d.tbl", "110", "--mode", "ten"],
    ["diagnose", "d.tbl", "110", "--mode"],
    ["query", "--", "t.tbl", "1100"], ["query", "t.tbl", "--", "1100"],
    ["query", "--json", "t.tbl", "1100"], ["query", "t.tbl", "--json", "1100"],
    ["query", "t.tbl"], ["query", "t.tbl", "1100", "1100"],
    ["sim", "copy.lamp", "--dots", "t.tbl"],
    ["sim", "copy.lamp", "t.tbl", "--max-steps", "0"],
    ["sim", "copy.lamp", "t.tbl", "--max-steps", "-1"],
    ["quality", "--fault-prob", "0.1", "--faults", "10", "--testability",
     "0.5", "--scan", "1"],
    ["quality", "--fault-prob", "0.1", "--faults", "1e3", "--testability",
     "0.5", "--scan", "1", "--logic", "1"],
    ["quality", "--fault-prob", "0.1", "--faults", "10", "--testability",
     "0.5", "--scan", "-0", "--logic", "1"],
], ids=" ".join)
def test_other_command_lines_go_to_argparse(argv):
    """Help, abbreviations, --opt=value, --, misplaced or missing arguments
    and bad values are left to argparse, which prints the help or error."""
    assert _accept(argv) is None


@pytest.mark.parametrize("unbuffered", [None, "1"],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_closed_pipe_exits_1_without_a_traceback(tmp_path, extra,
                                                 unbuffered):
    """A reader that stops early, as in ``veclog query ... | head -1``,
    ends the run with exit 1 and nothing on stderr, whether stdout is
    buffered or not (PYTHONUNBUFFERED)."""
    rows = [format(k, "012b") for k in range(4096)]
    table = write(tmp_path, "big.tbl", "4096 12\n" + "\n".join(rows) + "\n")
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(veclog.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "veclog.cli", "query", table, "1" * 12, *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()  # the report is far longer than the pipe holds
    assert proc.wait(timeout=120) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_import_loads_no_single_use_module():
    """``import veclog.cli`` loads neither the modules only one subcommand
    uses, nor the dataclass machinery, nor a SHA-256 module (hashlib with
    its OpenSSL binding, or the builtin one), nor argparse; checked on
    module names, not time."""
    out = run_python("import sys; before = set(sys.modules); import veclog.cli; "
                     "print(veclog.cli.__file__, *set(sys.modules) - before)"
                     ).split()
    assert out[0].startswith(str(Path(veclog.__file__).parents[1]))
    unused = {"dataclasses", "inspect", "fractions", "decimal", "json",
              "hashlib", "_hashlib", "_sha2", "_sha256", "argparse",
              "gettext", "locale",
              "veclog.assoc", "veclog.metric", "veclog.cover", "veclog.dq",
              "veclog.lamp"}
    assert not unused & set(out[1:])
    assert {"veclog", "veclog.cli", "veclog.vlcore"} <= set(out[1:])


def test_loading_the_cli_freezes_the_start_up_heap():
    """``import veclog.cli`` moves every object alive at that point into the
    permanent generation, so no collection, the interpreter's last ones
    included, visits the start-up heap again."""
    before, frozen = map(int, run_python(
        "import gc; before = len(gc.get_objects()); import veclog.cli; "
        "print(before, gc.get_freeze_count())").split())
    assert frozen >= before > 0


def test_the_library_layers_leave_gc_alone():
    out = run_python("import gc, veclog, veclog.assoc, veclog.cover, "
                     "veclog.lamp, sys; "
                     "print(gc.get_freeze_count(), 'veclog.cli' in sys.modules)")
    assert out.split() == ["0", "False"]


# each subcommand, the files it reads, and the veclog modules it ends with
LAYERS_RUN = {
    "query": (["q.tbl", "1100"], "vlcore assoc"),
    "diagnose": (["d.tbl", "110"], "vlcore assoc"),
    "repair": (["r.inst", "--oracle"], "vlcore assoc cover"),
    "quality": (["--fault-prob", "0.1", "--faults", "10", "--testability",
                 "0.5", "--scan", "1", "--logic", "1"], "vlcore dq"),
    "sim": (["p.lamp", "d.tbl"], "vlcore assoc lamp"),
}


@pytest.mark.parametrize("subcommand", sorted(LAYERS_RUN))
def test_each_subcommand_loads_only_its_layer(tmp_path, subcommand):
    """A well-formed command line loads its layer and no argparse, whose
    gettext lookups would also load locale."""
    files = {"q.tbl": QUERY_TABLE, "d.tbl": DIAG_TABLE,
             "r.inst": MEMORY_INSTANCE, "p.lamp": "LOADROW ma A[1]\nHALT\n"}
    args, layers = LAYERS_RUN[subcommand]
    args = [write(tmp_path, a, files[a]) if a in files else a for a in args]
    out = run_python("import io, sys, contextlib\n"
                     "from veclog.cli import main\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     "    code = main(sys.argv[1:])\n"
                     "print(code, *(m for m in sys.modules if m.partition('.')"
                     "[0] in ('veclog', 'argparse', 'gettext', 'locale')))",
                     subcommand, *args).split()
    assert out[0] == "0"
    assert set(out[1:]) == {"veclog", "veclog.cli",
                            *(f"veclog.{m}" for m in layers.split())}


@pytest.mark.parametrize("blocked", [[], ["_sha2", "_sha256"]])
def test_digest_is_sha256_with_or_without_the_builtin_module(tmp_path,
                                                            blocked):
    """The report digest comes from the builtin SHA-256 module when there is
    one and from hashlib when not; both give hashlib's digest."""
    data = QUERY_TABLE.encode("ascii") * 1000
    (tmp_path / "t.tbl").write_bytes(data)
    out = run_python("import sys\n"
                     "for name in sys.argv[2:]: sys.modules[name] = None\n"
                     "from veclog.cli import _load\n"
                     "print(_load(sys.argv[1], parse=len)[0],\n"
                     "      'hashlib' in sys.modules)",
                     str(tmp_path / "t.tbl"), *blocked).split()
    assert out == ["sha256:" + hashlib.sha256(data).hexdigest()[:12],
                   str(bool(blocked))]


@pytest.mark.parametrize("argv, digests", [
    (["query", "t.tbl", "1100"], 1),
    (["sim", "p.lamp", "t.tbl"], 2),
    (["sim", "--grid", "grid.txt"], 0),
])
def test_digest_only_where_a_digest_line_is_printed(capsys, tmp_path,
                                                    monkeypatch, argv,
                                                    digests):
    write(tmp_path, "t.tbl", QUERY_TABLE)
    write(tmp_path, "p.lamp", "LOADROW ma A[1]\nHALT\n")
    write(tmp_path, "grid.txt", "p.lamp t.tbl\n" * 16)
    monkeypatch.chdir(tmp_path)
    hashed, sha256 = [], cli.sha256
    monkeypatch.setattr(cli, "sha256",
                        lambda *data: hashed.append(data) or sha256(*data))
    code, out, _ = run(capsys, *argv)
    assert (code, len(hashed), out.count("-digest: ")) == (0, digests,
                                                          digests)


def test_help_still_comes_from_argparse():
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": str(Path(veclog.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "veclog.cli", "query", "-h"],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(
        "usage: veclog query [-h] [--arith] [--json] table query\n")
    assert "query bit string (ternary with --arith)" in proc.stdout


class TestQuality:
    def test_reference_values(self, capsys):
        code, out, _ = run(capsys, "quality", "--fault-prob", "0.1",
                           "--faults", "10", "--testability", "0.5",
                           "--scan", "1", "--logic", "1")
        assert code == 0
        assert value_of(out, "yield") == "0.348678"
        assert value_of(out, "fault-level") == "0.409510"
        assert value_of(out, "verification-time") == "0.250000"
        assert value_of(out, "hardware-redundancy") == "0.500000"
        assert value_of(out, "quality") == "0.386503"

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "quality", "--fault-prob", "1.5",
                           "--faults", "10", "--testability", "0.5",
                           "--scan", "1", "--logic", "1")
        assert code == 2

    @pytest.mark.parametrize("option", ["--scan", "--logic"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_complexity(self, capsys, option, value):
        argv = {"--fault-prob": "0.1", "--faults": "10",
                "--testability": "0.5", "--scan": "1", "--logic": "1",
                option: value}
        code, out, err = run(capsys, "quality",
                             *(a for pair in argv.items() for a in pair))
        assert (code, out) == (2, "")
        assert err == "error: complexities must be finite\n"

    def test_complexities_past_the_largest_sum(self, capsys):
        code, out, _ = run(capsys, "quality", "--fault-prob", "0.1",
                           "--faults", "10", "--testability", "0.5",
                           "--scan", "1e308", "--logic", "1e308")
        assert code == 0
        assert value_of(out, "verification-time") == "0.250000"
        assert value_of(out, "hardware-redundancy") == "0.500000"
        assert value_of(out, "quality") == "0.386503"

    @pytest.mark.parametrize("digits", [308, 309, 4300])
    @pytest.mark.parametrize("p", ["0", "0.1", "1"])
    @pytest.mark.parametrize("k", ["0.5", "1"])
    def test_huge_fault_count(self, capsys, digits, p, k):
        code, out, err = run(capsys, "quality", "--fault-prob", p,
                             "--faults", "9" * digits, "--testability", k,
                             "--scan", "1", "--logic", "1")
        assert (code, err) == (0, "")
        fault_level = 0.0 if p == "0" or k == "1" else 1.0
        time = (1.0 - float(k)) / 2
        assert value_of(out, "yield") == ("1.000000" if p == "0"
                                          else "0.000000")
        assert value_of(out, "fault-level") == f"{fault_level:.6f}"
        assert value_of(out, "verification-time") == f"{time:.6f}"
        assert value_of(out, "hardware-redundancy") == "0.500000"
        assert value_of(out, "quality") == \
            f"{(fault_level + time + 0.5) / 3.0:.6f}"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "quality", "--fault-prob", "0",
                           "--faults", "3", "--testability", "1",
                           "--scan", "1", "--logic", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["yield"] == "1.000000"
