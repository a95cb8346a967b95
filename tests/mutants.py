"""Replayable mutants: each one is a single text edit to ``src/veclog/``
that named tests must catch.

    python tests/mutants.py

For each entry of ``MUTANTS`` the script copies ``src/``, ``tests/``,
``README.md`` and ``pyproject.toml`` into a temporary directory, replaces
the entry's old text with its new text in the copy, and runs pytest there on
the entry's test ids.  It prints ``killed`` for a mutant when every listed
test fails, ``survived`` with the tests that passed otherwise, and exits 1
if any mutant survived.  Each old text must occur exactly once in its file;
``tests/test_mutants.py`` checks that on every Tier-1 run, so an edit to a
mutated line shows there before a mutant silently stops applying.  A mutant
whose code was deleted moves to ``RETIRED``, with what deleted it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, each of which must fail


ASSOC = "src/veclog/assoc.py"
CLI = "src/veclog/cli.py"
COVER = "src/veclog/cover.py"
LAMP = "src/veclog/lamp.py"
VLCORE = "src/veclog/vlcore.py"
STRIDE = ("tests/test_assoc.py::test_bytes_not_in_the_plain_layout_parse_"
          "row_by_row")
MUTANTS = [
    Mutant("walk: one more settled iteration", LAMP,
           "last = min(count, (limit - steps) // size,",
           "last = 1 + min(count, (limit - steps) // size,",
           ("tests/test_lamp.py::TestRunSequencer::test_loop_literal_count",
            "tests/test_golden.py::test_transcript[sim-feasible]")),
    Mutant("walk: loop size one short", LAMP,
           "count, size = ins.imm or n, end - pc",
           "count, size = ins.imm or n, end - pc - 1",
           ("tests/test_golden.py::test_transcript[sim-restrict-max-steps-7]",
            "tests/test_lamp.py::test_step_limits_deep_in_long_loops_match_"
            "reference[restrict]")),
    Mutant("walk: constant reads in a loop never checked", LAMP,
           "if row <= n and coordinate <= width else 0",
           "if True else 0",
           ("tests/test_lamp.py::test_executor_matches_reference[64]",)),
    Mutant("walk: the row bound of @ one high", LAMP,
           "n if row_at else count,", "n + 1 if row_at else count,",
           ("tests/test_golden.py::test_transcript[sim-loop5-row]",)),
    Mutant("walk: the coordinate bound of @ one high", LAMP,
           "width if coordinate_at else count)",
           "width + 1 if coordinate_at else count)",
           ("tests/test_golden.py::test_transcript[sim-feasible-tall]",)),
    Mutant("plan: a loop with a HALT is planned", LAMP,
           'if all(ins.opcode != "halt" for ins in code[loop:end]):',
           "if True:",
           ("tests/test_lamp.py::test_executor_matches_reference[64]",)),
    Mutant("emit: DEVORs from different sources fold", LAMP,
           '(ins.dst, ins.src1) if ins.imm and ins.opcode == "devor"',
           'ins.dst if ins.imm and ins.opcode == "devor"',
           ("tests/test_lamp.py::test_executor_matches_reference[64]",
            "tests/test_lamp.py::test_devor_runs_fold_only_with_one_"
            "destination_and_source")),
    Mutant("emit: DEVORs into different destinations fold", LAMP,
           '(ins.dst, ins.src1) if ins.imm and ins.opcode == "devor"',
           'ins.src1 if ins.imm and ins.opcode == "devor"',
           ("tests/test_lamp.py::test_devor_runs_fold_only_with_one_"
            "destination_and_source",)),
    Mutant("assemble: MB stored as ma", LAMP,
           "(reg := _REGISTER.get(token.lower()))",
           '(reg := "ma" if token == "MB" else _REGISTER.get(token.lower()))',
           ("tests/test_lamp.py::TestAssemble::test_registers_are_held_by_"
            "their_canonical_name",)),
    Mutant("assemble: the opcode stored as the token's copy", LAMP,
           "opcode, kinds, optional = _SHAPES[tokens[0].lower()]",
           "_, kinds, optional = _SHAPES[(opcode := tokens[0].lower())]",
           ("tests/test_lamp.py::TestAssemble::test_opcodes_are_held_by_"
            "their_canonical_name",)),
    Mutant("assemble: A[0] read as A[@]", LAMP,
           "if index < 1:", "if index < 0:",
           ("tests/test_lamp.py::TestAssemble::test_row_numbers_start_at_one",
            "tests/test_lamp.py::TestRunSequencer::test_hand_built_fields_"
            "never_reach_the_source[row-0]",
            "tests/test_golden.py::test_transcript[sim-asm-row-zero]")),
    Mutant("assemble: a 0 count or coordinate read as the wildcard", LAMP,
           "if value >= 1:", "if value >= 0:",
           ("tests/test_lamp.py::TestAssemble::test_loop_count_validation",
            "tests/test_lamp.py::TestRunSequencer::test_hand_built_fields_"
            "never_reach_the_source[devor-0]",
            "tests/test_golden.py::test_transcript[sim-asm-devor]")),
    Mutant("feasible_mask: the row's 1s contained in the query", ASSOC,
           "q & row == q", "q & row == row",
           ("tests/test_assoc.py::TestFeasibleMask::test_direct_formula",
            "tests/test_kernels.py::test_feasible_mask[64]",
            "tests/test_golden.py::test_transcript[query-labels-1100]")),
    Mutant("best_match: the most 1s win", ASSOC,
           "least = min(ones)", "least = max(ones)",
           ("tests/test_assoc.py::TestBestMatch::test_matches_popcount_oracle",
            "tests/test_kernels.py::test_best_match[64]",
            "tests/test_golden.py::test_transcript[query-labels-1100]")),
    Mutant("diagnose: single mode unions the failing rows", ASSOC,
           "hits & row", "hits | row",
           ("tests/test_assoc.py::TestDiagnose::test_single_matches_oracle_"
            "random",
            "tests/test_kernels.py::test_diagnose[64-DiagnosisMode.SINGLE]",
            "tests/test_golden.py::test_transcript[diagnose-single-110]")),
    Mutant("diagnose: multiple mode intersects the failing rows", ASSOC,
           "hits | row", "hits & row",
           ("tests/test_assoc.py::TestDiagnose::test_multiple",
            "tests/test_kernels.py::test_diagnose[64-DiagnosisMode.MULTIPLE]",
            "tests/test_golden.py::test_transcript[diagnose-multiple-110]")),
    Mutant("diagnose: a mode name runs multiple mode", ASSOC,
           "DiagnosisMode(mode) is", "mode is",
           ("tests/test_assoc.py::TestDiagnose::test_mode_names_read_as_"
            "their_members",)),
    Mutant("stride: newline positions unchecked", ASSOC,
           'block[width::stride] != "\\n" * rows', "False",
           (rf"{STRIDE}[2 3\n0110101\n]", rf"{STRIDE}[2 3\n011x101\n]")),
    Mutant("stride: first symbol unchecked", ASSOC,
           'or "\\n" in block[::stride]', "or False",
           (rf"{STRIDE}[2 3\n\n01\n011\n]",)),
    Mutant("stride: last symbol unchecked", ASSOC,
           'or "\\n" in block[width - 1::stride]', "or False",
           (rf"{STRIDE}[2 3\n011\n10\n\n]",)),
    Mutant("stride: the header checked undecoded", ASSOC,
           'shape = _plain_header(header.decode("ascii"))',
           "shape = _plain_header(header)",
           ("tests/test_assoc.py::test_header_and_trailer_bytes_read_as_text"
            "[form-feed-ends-header]",
            "tests/test_assoc.py::test_plain_layout_bytes_parse_by_stride"
            "[bare-1-5]")),
    Mutant("stride: a header holding another line break let through", ASSOC,
           "header.splitlines() == [header]", "True",
           ("tests/test_assoc.py::test_header_and_trailer_bytes_read_as_text"
            "[form-feed-inside-header]",
            "tests/test_assoc.py::test_streamed_reads_match_whole_reads"
            "[default]")),
    Mutant("stream: a non-ASCII tail let through", ASSOC,
           'tail.decode("ascii")', 'tail.decode("latin-1")',
           ("tests/test_golden.py::test_transcript[query-nonascii]",
            "tests/test_golden.py::test_transcript[diagnose-nonascii]")),
    Mutant("stream: a non-ASCII piece raises at its own position", ASSOC,
           "except UnicodeDecodeError:", "except LookupError:",
           ("tests/test_assoc.py::test_a_table_the_stream_gives_up_on_is_"
            "hashed_and_converted_once[non-ascii-default]",
            "tests/test_assoc.py::test_streamed_reads_fall_back_where_a_"
            "block_fails[non-ascii-middle-block-1-row]",
            "tests/test_golden.py::test_transcript[query-nonascii]")),
    Mutant("stream: the last block one row short", ASSOC,
           "rows = min(per_block, height - done)",
           "rows = min(per_block, height - done - 1)",
           ("tests/test_assoc.py::test_streamed_reads_fall_back_where_a_"
            "block_fails[plain-3-rows]",
            "tests/test_assoc.py::test_streamed_reads_match_whole_reads"
            "[3-rows]",
            "tests/test_golden.py::test_transcript[query-labels-1100]")),
    Mutant("stream: rows wider than a block read as a stream", ASSOC,
           "if not shape or shape[1] >= _BLOCK:", "if not shape:",
           ("tests/test_assoc.py::test_rows_wider_than_a_block_are_read_"
            "whole[100000000000000000000]",)),
    Mutant("read_table: the fall-back hashes the prefix again", ASSOC,
           "update(memoryview(data)[done:])", "update(data)",
           ("tests/test_assoc.py::test_a_table_the_stream_gives_up_on_is_"
            "hashed_and_converted_once[crlf-default]",
            "tests/test_assoc.py::test_a_table_the_stream_gives_up_on_is_"
            "hashed_and_converted_once[symbol-default]",
            "tests/test_golden.py::test_transcript[query-crlf]")),
    Mutant("read_table: a non-ASCII file raises ParseError", ASSOC,
           "_checked_rows(data.decode(\"ascii\"), False)",
           "_checked_rows(data.decode(\"ascii\", \"replace\"), False)",
           ("tests/test_assoc.py::test_a_table_the_stream_gives_up_on_is_"
            "hashed_and_converted_once[non-ascii-default]",
            "tests/test_golden.py::test_transcript[query-nonascii]",
            "tests/test_golden.py::test_transcript[diagnose-nonascii]")),
    Mutant("stream: the header left out of the digest", ASSOC,
           "update(header)", "None",
           ("tests/test_cli.py::TestQuery::test_digest_is_of_the_file_bytes",
            "tests/test_golden.py::test_transcript[query-labels-1100]")),
    Mutant("stride: '+' left out of the symbols int() accepts", ASSOC,
           '_INT_EXTRAS = "+-', '_INT_EXTRAS = "-',
           (rf"{STRIDE}[2 3\n+01\n011\n]",
            "tests/test_golden.py::test_transcript[query-int-plus]")),
    Mutant("stride: '_' left out of the symbols int() accepts", ASSOC,
           '"+-_bB', '"+-bB',
           (rf"{STRIDE}[2 3\n1_0\n011\n]",)),
    Mutant("stride: space left out of the symbols int() accepts", ASSOC,
           '_bB \\t', "_bB\\t",
           (rf"{STRIDE}[2 3\n 01\n011\n]", rf"{STRIDE}[2 3\n01 \n011\n]")),
    Mutant("stride: one symbol short per row", ASSOC,
           "range(0, len(block), stride)", "range(0, len(block), width)",
           ("tests/test_assoc.py::test_plain_layout_parses_by_stride[bare-1-5]",
            "tests/test_assoc.py::test_parse_holds_no_string_per_line")),
    Mutant("greedy_cover: a row gains only what is covered", COVER,
           "row & ~covered", "row & covered",
           ("tests/test_cover.py::TestGreedy::test_covers_everything_coverable",
            "tests/test_kernels.py::test_greedy_cover[64]",
            "tests/test_golden.py::test_transcript[repair-memory]")),
    Mutant("build_repair_table: faults numbered from the right", COVER,
           "bit = 1 << (n - 1 - k)", "bit = 1 << k",
           ("tests/test_kernels.py::test_build_repair_table[63]",
            "tests/test_cover.py::TestBuildRepairTable::test_memory_module_"
            "layout",
            "tests/test_cover.py::TestBuildRepairTable::test_two_faults_same_"
            "row")),
    Mutant("exact_cover_oracle: a tried row branched on again", COVER,
           "tried |= 1 << i  # later", "tried |= 0  # later",
           ("tests/test_kernels.py::test_exact_cover_oracle_matches_brute_"
            "force[64]",
            "tests/test_cover.py::TestOracleMatchesReference::test_random_"
            "generic",
            "tests/test_golden.py::test_transcript[repair-rand-oracle]")),
    Mutant("repair parse: the fast path accepts a fault line of 3 numbers",
           COVER, "all(count == 2 for count in counts)",
           "all(count in (2, 3) for count in counts)",
           ("tests/test_cover.py::test_parse_repair_instance_matches_"
            "reference_on_separators",
            "tests/test_cover.py::test_parse_repair_instance_matches_"
            "reference_on_random_texts")),
    Mutant("program mode tears down", CLI, "os._exit(status)",
           "sys.exit(status)",
           ("tests/test_cli.py::test_the_program_leaves_live_objects_"
            "unfinalized",)),
    Mutant("program mode skips atexit handlers", CLI,
           "atexit._run_exitfuncs()", "pass",
           ("tests/test_cli.py::test_the_program_runs_the_atexit_handlers",)),
    Mutant("program mode skips the final flush", CLI,
           "            stream.flush()", "            pass",
           ("tests/test_cli.py::test_the_program_runs_the_atexit_handlers",)),
    Mutant("cli: the _load ASCII gate dropped", CLI,
           'text = data.decode("ascii")', 'text = data.decode("latin-1")',
           ("tests/test_golden.py::test_transcript[arith-nonascii]",
            "tests/test_golden.py::test_transcript[repair-rep-nonascii]",
            "tests/test_golden.py::test_transcript[sim-nonascii-program]")),
    Mutant("cli: _accept lets a required option go missing", CLI,
           "if any(dest not in args for dest, _ in options.values()):",
           "if False:",
           ("tests/test_cli.py::test_other_command_lines_go_to_argparse"
            "[quality --fault-prob 0.1 --faults 10 --testability 0.5 --scan "
            "1]",)),
    Mutant("cli: _load hashes the bytes stripped", CLI,
           "update(data)", "update(data.rstrip())",
           ("tests/test_cli.py::test_digest_is_sha256_with_or_without_the_"
            "builtin_module[blocked0]",
            "tests/test_golden.py::test_transcript[repair-memory]")),
    Mutant("cli: the final report slice dropped", CLI,
           "    print(last)", "    pass",
           ("tests/test_cli.py::TestQuery::test_row_match",
            "tests/test_golden.py::test_transcript[query-labels-1100]",
            "tests/test_golden.py::test_transcript[sim-quality]")),
    Mutant("cli: the SHA import hoisted back to module level", CLI,
           "if TYPE_CHECKING:",
           "try:\n    from _sha2 import sha256  # CPython 3.12+\n"
           "except ImportError:\n    from _sha256 import sha256\n"
           "if TYPE_CHECKING:",
           ("tests/test_cli.py::test_import_loads_no_single_use_module",)),
    Mutant("best_match: veclog.metric imported", ASSOC,
           "    _check_query(table, query)\n    q = query.value\n    ones",
           "    from veclog.metric import CompactedQuality\n\n"
           "    _check_query(table, query)\n    q = query.value\n    ones",
           ("tests/test_cli.py::test_each_subcommand_loads_only_its_layer"
            "[query]",)),
    Mutant("value_type: a subclass instance compares equal", VLCORE,
           "if other.__class__ is self.__class__:",
           "if isinstance(other, self.__class__):",
           ("tests/test_values.py::TestContract::test_only_same_class_is_"
            "equal[BitVector]",)),
    Mutant("value_type: the slot branch skips the last field", VLCORE,
           "zip(setters, args)", "zip(setters[:-1], args)",
           ("tests/test_values.py::TestContract::test_positional_and_keyword_"
            "construction[Spare]",
            "tests/test_golden.py::test_transcript[repair-memory]")),
]



class Retired(NamedTuple):
    name: str
    file: str  # relative to the repository root
    gone: str  # deleted code, which occurs nowhere in the file now
    why: str


# Mutants that no longer apply because the code they edited was deleted.
RETIRED = [
    Retired("_binary_values: one of the symbols int() accepts left out of "
            "the search", ASSOC, "_binary_values",
            "deleted when binary tables moved to the row-stride parse; the "
            "stride mutants above edit its successor's symbol set"),
    Retired("stride: newlines not counted", ASSOC, 'text.count("\\n"',
            "the count of the row block's newlines gave way to the stride "
            "guard's first- and last-symbol checks, which turn away the same "
            "tables; their two mutants above replace it"),
    Retired("stream: the per-block ASCII check dropped", ASSOC,
            "block.isascii()",
            "deleted when the stream's blocks were left to the stride guard "
            "alone; each block is now decoded as ASCII before the guard sees "
            "it, and the mutant 'stream: a non-ASCII piece raises at its own "
            "position' checks that a block that is not falls back"),
    Retired("cli: the fallback reuses the stream's partial digest", CLI,
            "return _load(path, assoc.parse_table",
            "deleted when cli._load_table folded into cli._load and the "
            "fall-back moved into assoc.read_table, which hashes only the "
            "bytes after the stream's; the mutant 'read_table: the fall-back "
            "hashes the prefix again' replaces it"),
    Retired("cli: start-up heap not frozen", CLI, "gc.freeze()",
            "deleted with the import-time freeze once the program's own exit "
            "skipped the teardown it sped up; the three 'program mode' "
            "mutants above check that exit"),
    Retired("walk: ENDLOOP with no loop running passes", LAMP,
            'if ins.opcode == "endloop":',
            "deleted with the fault when every run came to start at the "
            "first instruction: the walk then never runs an ENDLOOP, as the "
            "loop iteration it walks faults and a loop whose body holds a "
            "HALT halts or faults in its first iteration"),
    Retired("stride: rows past the end of the text let through", ASSOC,
            "len(buf) < end",
            "deleted with parse_table's stride path over a whole text: the "
            "stream reads a block of at most the rows it converts, and a "
            "short block holds fewer than one \"\\n\" per row, which the "
            "newline-position check turns away"),
    Retired("stride: non-ASCII text let through", ASSOC, "text.isascii()",
            "deleted with parse_table's stride path over a whole text: the "
            "stream decodes the header and each block as ASCII before the "
            "stride guard sees them, and the mutant 'stream: a non-ASCII "
            "piece raises at its own position' checks that"),
]


def apply(mutant: Mutant, root: Path) -> None:
    """Edit the copy of the mutant's file under ``root``."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs "
                         f"{text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def failing(mutant: Mutant) -> set[str]:
    """The ids among the mutant's tests that fail on a mutated copy."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp) / name
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy(source, target)
        apply(mutant, Path(tmp))
        env = {**os.environ, "COLUMNS": "1000"}  # ids are never cut short
        env.pop("PYTHONPATH", None)  # pyproject.toml puts the copy's src first
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True)
    return {line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in run.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def main() -> int:
    survived = 0
    for mutant in MUTANTS:
        failed = failing(mutant)
        passed = [test for test in mutant.tests if test not in failed]
        survived += bool(passed)
        print(f"{mutant.name}: " + (
            f"survived ({', '.join(passed)} passed)" if passed else "killed"))
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed",
          file=sys.stderr)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
