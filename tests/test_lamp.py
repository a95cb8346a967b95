import contextlib
import copy
import io
import pickle
import random
import re
from functools import partial
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bit, rand_bitvector, rand_table, with_bit
from veclog import lamp
from veclog.assoc import (
    AssociativeTable,
    DiagnosisMode,
    diagnose,
    feasible_mask,
)
from veclog.cli import main
from veclog.cover import CoverageInstance, greedy_cover
from veclog.lamp import (
    DEFAULT_MAX_STEPS,
    REGISTERS,
    AssemblyError,
    BadArity,
    BitOutOfRange,
    GridCellError,
    GridState,
    Instruction,
    Program,
    RowOutOfRange,
    SequencerState,
    SimulationError,
    StepLimitExceeded,
    UnknownRegister,
    assemble,
    coverage_search_source,
    diagnosis_source,
    emit_source,
    feasible_search_source,
    quality_source,
    restrict_source,
    run_grid,
    run_sequencer,
    with_response_column,
)
from veclog.metric import quality_vector
from veclog.vlcore import BitVector, EmptyInput, decimal, slc

rng_seed = 41


def bv(s):
    return BitVector.from_string(s)


def registers(state):
    return [getattr(state, name) for name in REGISTERS]


def fresh(rows, **presets):
    table = AssociativeTable([int(r, 2) for r in rows], len(rows[0]))
    return SequencerState(table, **presets)


class TestAssemble:
    def test_single_binary_instruction(self):
        program = assemble("XOR md ma mb\n")
        assert len(program.instructions) == 1
        assert program.instructions[0].opcode == "xor"

    def test_single_nop(self):
        program = assemble("NOP ma\n")
        ins = program.instructions[0]
        assert ins.opcode == "nop"
        assert ins.dst == ins.src1 == "ma"

    def test_registers_are_held_by_their_canonical_name(self):
        # every spelling of a register names the one string in REGISTERS
        for name in REGISTERS:
            for spelling in (name, name.upper(), name.title(),
                             name[0] + name[1].upper()):
                ins, = assemble(f"AND {spelling} A[1] {spelling}\n"
                                ).instructions
                assert ins.dst is name and ins.src2 is name, spelling

    def test_opcodes_are_held_by_their_canonical_name(self):
        # every spelling of an operation names the one string in _OPS
        operand = {"r": "ma", "s": "A[1]", "R": "A[1]", "k": "1", "n": "2"}
        around = {"loop": "{}\nENDLOOP\n", "endloop": "LOOP 2\n{}\n"}
        for name, (shape, _) in lamp._OPS.items():
            operands = [operand[kind] for kind in shape.rstrip("?")]
            for spelling in map("".join, product(*zip(name, name.upper()))):
                source = around.get(name, "{}\n").format(
                    " ".join([spelling, *operands]))
                ins, = [ins for ins in assemble(source).instructions
                        if ins.opcode == name]
                assert ins.opcode is name, spelling

    def test_quality_program_assembles(self):
        program = assemble(quality_source())
        assert len(program.instructions) == 11

    def test_shipped_programs_assemble(self):
        for source in (feasible_search_source(), coverage_search_source(),
                       restrict_source(), diagnosis_source(5),
                       diagnosis_source(5, DiagnosisMode.MULTIPLE)):
            assemble(source)

    def test_comments_and_labels(self):
        program = assemble("start: AND ma ma mb ; comment\nagain: HALT\n")
        assert [ins.opcode for ins in program.instructions] == \
            ["and", "halt"]

    def test_duplicate_label(self):
        with pytest.raises(AssemblyError):
            assemble("x: HALT\nx: HALT\n")

    def test_unknown_register(self):
        with pytest.raises(UnknownRegister) as err:
            assemble("HALT\nAND me ma mb\n")
        assert err.value.line == 2

    def test_bad_arity(self):
        with pytest.raises(BadArity):
            assemble("AND ma mb\n")

    def test_unknown_opcode(self):
        with pytest.raises(AssemblyError) as err:
            assemble("FROB ma\n")
        assert err.value.line == 1

    def test_nested_loop_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("LOOP 2\nLOOP 2\nENDLOOP\nENDLOOP\n")

    def test_endloop_without_loop(self):
        with pytest.raises(AssemblyError):
            assemble("ENDLOOP\n")

    def test_unclosed_loop(self):
        with pytest.raises(AssemblyError):
            assemble("LOOP 2\nNOP ma ma\n")

    def test_loop_row_outside_loop(self):
        with pytest.raises(AssemblyError):
            assemble("AND ma A[@] mb\n")
        with pytest.raises(AssemblyError):
            assemble("DEVOR ma @ mb\n")

    def test_row_numbers_start_at_one(self):
        with pytest.raises(AssemblyError):
            assemble("LOADROW ma A[0]\n")

    def test_loop_count_validation(self):
        with pytest.raises(AssemblyError):
            assemble("LOOP 0\nENDLOOP\n")
        with pytest.raises(AssemblyError):
            assemble("LOOP many\nENDLOOP\n")
        # str.isdigit accepts a superscript digit that int() rejects
        for source in ("LOOP \u00b2\nENDLOOP\n", "DEVOR ma \u00b2 mb\n"):
            with pytest.raises(AssemblyError) as err:
                assemble(source)
            assert err.value.line == 1

    def test_empty_source(self):
        with pytest.raises(EmptyInput):
            assemble("   \n  \n")

    def test_comment_only_source_is_an_empty_program(self):
        assert len(assemble("; nothing to do\n").instructions) == 0

    def test_a_program_is_made_only_from_its_text(self):
        assert assemble("HALT\n") == Program("HALT\n")
        for source in ((Instruction("halt"),), b"HALT"):
            with pytest.raises(TypeError, match="must be a str"):
                Program(source)


class TestRunSequencer:
    def test_quality_reduction_example(self):
        program = assemble("LOADROW ma A[1]\nXOR md ma mb\nHALT\n")
        state = fresh(["000011110101"], mb=bv("110011001100"))
        out = run_sequencer(state, program)
        assert out.md == bv("110000111001")
        assert out.steps == 3

    def test_nop_program_leaves_registers(self):
        state = fresh(["1010"], ma=bv("1100"))
        out = run_sequencer(state, assemble("NOP ma\nHALT\n"))
        assert registers(out) == registers(state)
        assert out.memory.rows == state.memory.rows

    def test_input_state_not_mutated(self):
        state = fresh(["1111"])
        run_sequencer(state, assemble("SETALL ma\nSTOREROW A[1] ma\nHALT\n"))
        assert state.ma == bv("0000")
        assert str(state.memory.rows[0]) == "1111"

    def test_setall_clrall_devor(self):
        program = assemble("SETALL ma\nCLRALL mb\nDEVOR mb 3 ma\nHALT\n")
        out = run_sequencer(fresh(["0000"]), program)
        assert out.ma == bv("1111")
        assert out.mb == bv("0010")

    def test_slc_and_not(self):
        program = assemble("LOADROW ma A[1]\nSLC mb ma\nNOT mc ma\nHALT\n")
        out = run_sequencer(fresh(["0101"]), program)
        assert out.mb == bv("1100")
        assert out.mc == bv("1010")

    def test_storerow_visible_to_later_reads(self):
        program = assemble(
            "SETALL ma\nSTOREROW A[2] ma\nLOADROW mb A[2]\nHALT\n")
        out = run_sequencer(fresh(["0000", "0000"]), program)
        assert out.mb == bv("1111")
        assert str(out.memory.rows[1]) == "1111"

    def test_loop_star_runs_once_per_row(self):
        program = assemble("LOOP *\nOR ma A[@] ma\nENDLOOP\nHALT\n")
        out = run_sequencer(fresh(["1000", "0010", "0001"]), program)
        assert out.ma == bv("1011")

    def test_loop_literal_count(self):
        program = assemble("LOOP 2\nOR ma A[@] ma\nENDLOOP\nHALT\n")
        out = run_sequencer(fresh(["1000", "0010", "0001"]), program)
        assert out.ma == bv("1010")

    def test_devor_loop_index(self):
        program = assemble("LOOP *\nDEVOR ma @ A[@]\nENDLOOP\nHALT\n")
        out = run_sequencer(fresh(["0100", "0000", "1111", "0000"]), program)
        assert out.ma == bv("1010")

    def test_row_out_of_range(self):
        with pytest.raises(RowOutOfRange):
            run_sequencer(fresh(["10"]), assemble("LOADROW ma A[3]\nHALT\n"))

    def test_devor_bit_out_of_range(self):
        with pytest.raises(BitOutOfRange):
            run_sequencer(fresh(["10"]), assemble("DEVOR ma 3 mb\nHALT\n"))

    def test_step_limit(self):
        program = assemble("LOOP 1000\nNOP ma ma\nENDLOOP\nHALT\n")
        with pytest.raises(StepLimitExceeded):
            run_sequencer(fresh(["1"]), program, max_steps=100)

    def test_missing_halt_falls_off_the_end(self):
        out = run_sequencer(fresh(["10"]), assemble("SETALL ma\n"))
        assert out.pc == 1
        assert out.ma == bv("11")

    def test_operands_are_only_registers_rows_or_numbers(self, capsys):
        # the program runs as generated Python: an operand that is not a
        # register is rejected when its text is assembled, never evaluated
        with pytest.raises(UnknownRegister):
            run_sequencer(fresh(["10"]), Program("NOP ma print('x')\n"))
        assert capsys.readouterr().out == ""

    def test_a_row_in_src2_is_checked(self, capsys):
        # src2 is a register, so a row there is rejected, not read
        with pytest.raises(UnknownRegister, match=r"^line 1: unknown "
                                                  r"register 'A\[2\]'$"):
            run_sequencer(fresh(["10", "01"], mb=bv("11")),
                          Program("AND ma mb A[2]\n"))
        assert capsys.readouterr().out == ""

    # text whose fields, written into the emitted source, would be code or
    # an unchecked row or coordinate
    @pytest.mark.parametrize("source, error", [
        ("LOOP print('x') or 1\nENDLOOP\n", AssemblyError),
        ("LOOP 1\nLOADROW ma A[0]\nENDLOOP\n", AssemblyError),
        ("LOOP 1\nLOADROW ma A[-1]\nENDLOOP\n", AssemblyError),
        ("DEVOR ma 0 mb\n", AssemblyError),
        ("DEVOR ma -1 mb\n", AssemblyError),
        ("print('x') ma ma\n", AssemblyError),
        # a subclass could answer the assembler's str methods with anything
        (type("Text", (str,), {})("NOP ma ma\n"), TypeError),
    ], ids=["loop-count", "row-0", "row-minus-1", "devor-0", "devor-minus-1",
            "opcode", "str-subclass"])
    def test_hand_built_fields_never_reach_the_source(self, source, error,
                                                      capsys):
        with pytest.raises(error):
            run_sequencer(fresh(["10", "01", "11"]), Program(source))
        assert capsys.readouterr().out == ""

    def test_determinism(self):
        rng = random.Random(rng_seed)
        table = rand_table(rng, 5, 8)
        program = assemble(coverage_search_source())
        first = run_sequencer(SequencerState(table), program)
        second = run_sequencer(SequencerState(table), program)
        assert first == second


class TestShippedPrograms:
    def test_quality_program_matches_library(self):
        rng = random.Random(rng_seed)
        program = assemble(quality_source())
        for _ in range(30):
            w = rng.randint(2, 16)
            row = rand_bitvector(rng, w)
            query = rand_bitvector(rng, w)
            out = run_sequencer(
                SequencerState(AssociativeTable([row.value], w), mb=query),
                program)
            expected = quality_vector(query, row).quality
            assert out.mc == expected
            assert out.md == slc(expected)

    def test_feasibility_program_matches_library(self):
        rng = random.Random(rng_seed + 1)
        program = assemble(feasible_search_source())
        for _ in range(30):
            w = rng.randint(3, 12)
            n = rng.randint(1, w)
            table = rand_table(rng, n, w)
            query = rand_bitvector(rng, w)
            out = run_sequencer(SequencerState(table, mb=query), program)
            mask = feasible_mask(table, query)
            assert out.ma == BitVector(mask.value << (w - n), w)

    def test_coverage_program_matches_library(self):
        rng = random.Random(rng_seed + 2)
        program = assemble(coverage_search_source())
        for _ in range(30):
            w = rng.randint(3, 12)
            n = rng.randint(1, w)
            table = rand_table(rng, n, w)
            out = run_sequencer(SequencerState(table), program)
            taken = greedy_cover(CoverageInstance(table))
            assert out.ma == BitVector(taken.value << (w - n), w)

    def test_diagnosis_program_matches_library(self):
        rng = random.Random(rng_seed + 3)
        for mode in (DiagnosisMode.SINGLE, DiagnosisMode.MULTIPLE):
            for _ in range(20):
                n = rng.randint(1, 8)
                w = rng.randint(2, 10)
                table = rand_table(rng, n, w)
                response = rand_bitvector(rng, n)
                augmented = with_response_column(table, response)
                program = assemble(diagnosis_source(augmented.width, mode))
                out = run_sequencer(SequencerState(augmented), program)
                lib = diagnose(table, response, mode)
                assert out.mb == BitVector(lib.value << 1, w + 1)

    def test_restrict_program_matches_library(self):
        rng = random.Random(rng_seed + 4)
        program = assemble(restrict_source())
        for _ in range(20):
            table = rand_table(rng, rng.randint(1, 8), rng.randint(2, 10))
            query = rand_bitvector(rng, table.width)
            out = run_sequencer(SequencerState(table, mb=query), program)
            assert out.memory.values == \
                tuple(row & query.value for row in table.values)

    def test_every_opcode_is_shipped(self):
        shipped = (quality_source() + feasible_search_source()
                   + coverage_search_source() + restrict_source()
                   + diagnosis_source(4))
        used = {ins.opcode
                for src in (quality_source(), feasible_search_source(),
                            coverage_search_source(), restrict_source(),
                            diagnosis_source(4))
                for ins in assemble(src).instructions}
        assert used == set(lamp._OPS), f"missing: {set(lamp._OPS) - used}"
        assert shipped  # sanity


class TestGrid:
    def test_sixteen_identical_cells(self):
        rng = random.Random(rng_seed + 5)
        table = rand_table(rng, 4, 6)
        query = rand_bitvector(rng, 6)
        cell = SequencerState(table, mb=query)
        program = assemble(feasible_search_source())
        out = run_grid(GridState((cell,) * 16), [program] * 16)
        assert all(c == out.cells[0] for c in out.cells)
        assert out.cells[0] == run_sequencer(cell, program)

    def test_grid_equals_independent_runs(self):
        rng = random.Random(rng_seed + 6)
        cells, programs = [], []
        for _ in range(16):
            height = rng.randint(1, 4)  # row masks need height <= width
            table = rand_table(rng, height, rng.randint(height, 6))
            cells.append(SequencerState(
                table, mb=rand_bitvector(rng, table.width)))
            programs.append(assemble(rng.choice(
                [feasible_search_source(), coverage_search_source(),
                 restrict_source()])))
        out = run_grid(GridState(tuple(cells)), programs)
        for cell, program, result in zip(cells, programs, out.cells):
            assert result == run_sequencer(cell, program)

    def test_mixed_workload_matches_library(self):
        # partitioned data: one cell diagnoses, one covers, one filters
        rng = random.Random(rng_seed + 7)
        table_a = rand_table(rng, 4, 8)
        query = rand_bitvector(rng, 8)
        table_b = rand_table(rng, 5, 8)
        table_c = rand_table(rng, 6, 8)
        response = rand_bitvector(rng, 6)
        augmented = with_response_column(table_c, response)
        cells = [SequencerState(table_a, mb=query),
                 SequencerState(table_b),
                 SequencerState(augmented)]
        cells += [SequencerState(rand_table(rng, 1, 8))] * 13
        programs = [assemble(feasible_search_source()),
                    assemble(coverage_search_source()),
                    assemble(diagnosis_source(augmented.width))]
        programs += [assemble("HALT\n")] * 13
        out = run_grid(GridState(tuple(cells)), programs)
        mask = feasible_mask(table_a, query)
        assert out.cells[0].ma == BitVector(mask.value << 4, 8)
        taken = greedy_cover(CoverageInstance(table_b))
        assert out.cells[1].ma == BitVector(taken.value << 3, 8)
        located = diagnose(table_c, response)
        assert out.cells[2].mb == BitVector(located.value << 1, 9)

    def test_empty_programs_leave_grid_unchanged(self):
        rng = random.Random(rng_seed + 8)
        cells = tuple(SequencerState(rand_table(rng, 2, 4))
                      for _ in range(16))
        out = run_grid(GridState(cells), [assemble("; idle\n")] * 16)
        for before, after in zip(cells, out.cells):
            assert registers(after) == registers(before)
            assert after.memory.rows == before.memory.rows

    def test_cell_error_carries_coordinates(self):
        rng = random.Random(rng_seed + 9)
        cells = [SequencerState(rand_table(rng, 2, 4))
                 for _ in range(16)]
        programs = [assemble("HALT\n")] * 16
        programs[6] = assemble("LOADROW ma A[9]\nHALT\n")  # cell (2,3)
        with pytest.raises(GridCellError) as err:
            run_grid(GridState(tuple(cells)), programs)
        assert (err.value.row, err.value.col) == (2, 3)
        assert isinstance(err.value.__cause__, RowOutOfRange)

    def test_grid_needs_sixteen_programs(self):
        rng = random.Random(rng_seed + 10)
        grid = GridState((SequencerState(rand_table(rng, 1, 2)),) * 16)
        with pytest.raises(ValueError):
            run_grid(grid, [assemble("HALT\n")] * 15)


class TestResponseColumn:
    @pytest.mark.parametrize("height", [1, 64, 65, (1 << 16) + 3])
    def test_matches_per_bit_construction(self, height):
        rng = random.Random(rng_seed + height)
        table = rand_table(rng, height, 3)
        response = rand_bitvector(rng, height)
        rows = [BitVector(row.value << 1 | bit(response, i + 1), 4)
                for i, row in enumerate(table.rows)]
        assert with_response_column(table, response).rows == tuple(rows)


class TestResume:
    @pytest.mark.parametrize("body, line, what", [
        ("OR ma A[@] ma", 3, "@"),
        ("DEVOR ma @ mb", 3, "@"),
        ("NOP ma", 4, "ENDLOOP"),
    ])
    def test_resuming_inside_a_loop_body(self, body, line, what):
        program = assemble(f"LOOP *\nHALT\n{body}\nENDLOOP\nHALT\n")
        first = run_sequencer(fresh(["10", "01"]), program)
        assert (first.pc, first.steps) == (2, 2)
        with pytest.raises(SimulationError) as err:
            run_sequencer(first, program)
        assert str(err.value) == f"{what} with no LOOP running (line {line})"

    def test_resuming_into_a_body_with_a_second_halt(self):
        # a body holding a HALT runs straight through: resumed after its
        # first HALT, it runs real statements up to the second one
        program = assemble("LOOP 2\nNOP ma A[@]\nHALT\nNOT mb\nHALT\n"
                           "OR ma A[@] ma\nENDLOOP\nHALT\n")
        first = run_sequencer(fresh(["10", "01"], mb=bv("10")), program)
        assert (first.pc, first.steps, first.ma) == (3, 3, bv("10"))
        second = run_sequencer(first, program)
        assert (second.pc, second.steps) == (5, 2)
        assert (second.ma, second.mb) == (bv("10"), bv("01"))
        for state in (first, second):
            assert outcome(run_sequencer, state, program, 10) == \
                outcome(reference_run, state, program, 10)
        with pytest.raises(SimulationError, match=r"^@ with no LOOP running "
                                                  r"\(line 6\)$"):
            run_sequencer(second, program)

    def test_rows_past_a_halt_are_never_read(self):
        program = assemble("HALT\nLOADROW ma A[9]\nHALT\n")
        out = run_sequencer(fresh(["10"]), program)
        assert (out.pc, out.steps) == (1, 1)
        with pytest.raises(RowOutOfRange, match=r"^row 9 out of 1\.\.1 "
                                                r"\(line 2\)$"):
            run_sequencer(out, program)


# ---------------------------------------------------------------------------
# Differential test of the decoded executor against a reference that applies
# the BitVector operators one instruction at a time.

_BINARY = {"and": BitVector.__and__, "or": BitVector.__or__,
           "xor": BitVector.__xor__}
_UNARY = {"not": BitVector.__invert__, "slc": slc, "nop": lambda v: v,
          "loadrow": lambda v: v}


def reference_run(state, program, max_steps):
    width = state.memory.width
    rows = list(state.memory.rows)
    regs = {name: getattr(state, name) for name in REGISTERS}
    code, pc, steps = program.instructions, state.pc, 0
    loop = None  # [body pc, count, row]

    def loop_row(ins):
        if loop is None:
            raise SimulationError(f"@ with no LOOP running (line {ins.line})")
        return loop[2]

    def row(index, ins):
        k = index or loop_row(ins)
        if not 1 <= k <= len(rows):
            raise RowOutOfRange(f"row {k} out of 1..{len(rows)} "
                                f"(line {ins.line})")
        return k - 1

    def value(operand, ins):
        if isinstance(operand, int):
            return rows[row(operand, ins)]
        return regs[operand]

    while pc < len(code):
        if steps >= max_steps:
            raise StepLimitExceeded(f"exceeded {max_steps} steps")
        ins, steps, pc = code[pc], steps + 1, pc + 1
        op = ins.opcode
        if op == "halt":
            break
        if op in _BINARY:
            regs[ins.dst] = _BINARY[op](value(ins.src1, ins), regs[ins.src2])
        elif op in _UNARY:
            regs[ins.dst] = _UNARY[op](value(ins.src1, ins))
        elif op == "storerow":
            rows[row(ins.dst, ins)] = regs[ins.src1]
        elif op == "devor":
            k = ins.imm or loop_row(ins)
            if not 1 <= k <= width:
                raise BitOutOfRange(f"coordinate {k} out of 1..{width} "
                                    f"(line {ins.line})")
            bit = value(ins.src1, ins) != BitVector.zeros(width)
            regs[ins.dst] = with_bit(regs[ins.dst], k, bit)
        elif op in ("setall", "clrall"):
            regs[ins.dst] = (BitVector.ones if op == "setall"
                             else BitVector.zeros)(width)
        elif op == "loop":
            loop = [pc, ins.imm or len(rows), 1]
        elif op == "endloop":
            if loop is None:
                raise SimulationError(f"ENDLOOP with no LOOP running "
                                      f"(line {ins.line})")
            if loop[2] < loop[1]:
                loop[2] += 1
                pc = loop[0]
            else:
                loop = None
    memory = state.memory
    if rows != list(memory.rows):
        memory = AssociativeTable([row.value for row in rows], width,
                                  memory.row_labels, memory.col_labels)
    return SequencerState(memory, *(regs[n] for n in REGISTERS), pc, steps)


def random_source(rng, height, width, edges=False):
    """Straight-line code around one loop, over all 14 opcodes, with rows
    and DEVOR coordinates both in and out of range.  With ``edges``, some
    lines are a DEVOR run (its source the destination, another register or
    a row; its coordinates counting up or shuffled, some past the width) or
    a STOREROW followed by a read of the same row, the loop may run past
    the table's height, and half the programs never read A[@].  Without it
    the generator draws exactly what it always has from ``rng``."""
    reads_at = not edges or rng.random() < 0.5

    def reg():
        return rng.choice(("ma", "mb", "mc", "md"))

    def number(bound):  # now and then one or two past the bound
        return rng.randint(1, bound) if rng.random() < 0.9 \
            else bound + rng.randint(1, 2)

    def row(in_loop):
        if in_loop and reads_at and rng.random() < 0.5:
            return "A[@]"
        return f"A[{number(height)}]"

    def src(in_loop):
        return row(in_loop) if rng.random() < 0.4 else reg()

    def edge(in_loop):
        dst = reg()
        if rng.random() < 0.5:
            source = rng.choice((dst, reg(), row(in_loop)))
            first = rng.choice((1, rng.randint(1, width), max(1, width - 2)))
            ks = list(range(first, first + rng.randint(2, 6)))
            if rng.random() < 0.3:
                rng.shuffle(ks)
            return "\n".join(f"DEVOR {dst} {k} {source}" for k in ks)
        stored = row(in_loop)
        return f"STOREROW {stored} {dst}\n" + rng.choice(
            (f"LOADROW {reg()} {stored}", f"XOR {reg()} {stored} {reg()}"))

    def line(in_loop):
        if edges and rng.random() < 0.3:
            return edge(in_loop)
        op = rng.choice(("AND", "OR", "XOR", "NOT", "SLC", "NOP", "LOADROW",
                         "STOREROW", "DEVOR", "SETALL", "CLRALL", "HALT"))
        if op in ("AND", "OR", "XOR"):
            return f"{op} {reg()} {src(in_loop)} {reg()}"
        if op in ("NOT", "SLC", "NOP"):
            return f"{op} {reg()} {src(in_loop)}" if rng.random() < 0.7 \
                else f"{op} {reg()}"
        if op == "LOADROW":
            return f"{op} {reg()} {row(in_loop)}"
        if op == "STOREROW":
            return f"{op} {row(in_loop)} {reg()}"
        if op == "DEVOR":
            k = "@" if in_loop and rng.random() < 0.5 else number(width)
            return f"{op} {reg()} {k} {src(in_loop)}"
        if op == "HALT":
            return op if rng.random() < 0.3 else "NOP ma"
        return f"{op} {reg()}"

    counts = ["*", number(height)]
    if edges:
        counts.append(height + rng.randint(1, 3))  # past the last row
    count = rng.choice(counts)
    lines = [line(False) for _ in range(rng.randint(0, 4))]
    lines += [f"LOOP {count}"] + [line(True) for _ in range(rng.randint(0, 5))]
    lines += ["ENDLOOP"] + [line(False) for _ in range(rng.randint(0, 4))]
    return "\n".join(lines) + "\n"


def outcome(run, state, program, max_steps):
    try:
        return run(state, program, max_steps)
    except SimulationError as exc:
        return type(exc), str(exc)


def check_against_reference(state, program, max_steps):
    got = outcome(run_sequencer, state, program, max_steps)
    assert got == outcome(reference_run, state, program, max_steps)
    if isinstance(got, SequencerState) and got.pc < len(program.instructions):
        # resume after a HALT, possibly inside the loop body
        assert outcome(run_sequencer, got, program, max_steps) == \
            outcome(reference_run, got, program, max_steps)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 160])
def test_executor_matches_reference(width):
    rng = random.Random(f"executor/{width}")
    for _ in range(150):
        height = rng.randint(1, 5)
        state = SequencerState(
            rand_table(rng, height, width),
            **{name: rand_bitvector(rng, width) for name in ("ma", "mb")})
        program = assemble(random_source(rng, height, width))
        max_steps = rng.choice([1, 4, 20, 1000, 1000])
        check_against_reference(state, program, max_steps)
    # the loop edges, with the step limit swept over every step of the run
    # (the first 60 of a long one), so it lands on every instruction of the
    # loop body in every iteration
    rng = random.Random(f"executor-edges/{width}")
    for _ in range(80):
        height = rng.randint(1, 5)
        state = SequencerState(
            rand_table(rng, height, width),
            **{name: rand_bitvector(rng, width) for name in ("ma", "mb")})
        program = assemble(random_source(rng, height, width, edges=True))
        full = outcome(reference_run, state, program, 10 ** 6)
        steps = full.steps if isinstance(full, SequencerState) else 60
        for max_steps in [*range(1, min(steps, 60) + 2), 10 ** 6]:
            check_against_reference(state, program, max_steps)


def test_devor_runs_fold_only_with_one_destination_and_source():
    """Consecutive DEVORs with constant coordinates share one statement only
    while both destination and source stay the same: a new source alone, or
    a new destination alone, starts a new run."""
    program = assemble("LOOP *\nDEVOR ma 1 mb\nDEVOR ma 2 mc\nDEVOR ma 3 mb\n"
                       "DEVOR md 4 mb\nENDLOOP\nHALT\n")
    rng = random.Random("devor-runs")
    table = rand_table(rng, 3, 5)
    zeros, ones = BitVector.zeros(5), BitVector.ones(5)
    for mb in (zeros, ones):
        for mc in (zeros, ones):
            for ma, md in ((zeros, zeros), (rand_bitvector(rng, 5),
                                            rand_bitvector(rng, 5))):
                state = SequencerState(table, ma=ma, mb=mb, mc=mc, md=md)
                assert run_sequencer(state, program) == \
                    reference_run(state, program, 10 ** 6)


SHIPPED = {
    "quality": quality_source(), "feasible": feasible_search_source(),
    "coverage": coverage_search_source(), "restrict": restrict_source(),
    "diagnosis-single": diagnosis_source(6),
    "diagnosis-multiple": diagnosis_source(6, DiagnosisMode.MULTIPLE),
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_resume_from_every_pc_matches_reference(name):
    rng = random.Random(f"resume/{name}")
    program = assemble(SHIPPED[name])
    # on 7 rows of 6 columns the feasible and coverage searches fault
    for height, width in ((4, 6), (7, 6)):
        table = rand_table(rng, height, width)
        regs = {reg: rand_bitvector(rng, width) for reg in REGISTERS}
        for pc in range(len(program.instructions) + 1):
            state = SequencerState(table, **regs, pc=pc)
            for max_steps in (5, 1000):
                assert outcome(run_sequencer, state, program, max_steps) == \
                    outcome(reference_run, state, program, max_steps)
            sweep_step_limit(state, program)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 256])
def test_storerow_memory_matches_reference(width):
    rng = random.Random(f"storerow/{width}")
    changed = 0
    for height in (1, 2, 64, 65):
        table = AssociativeTable(rand_table(rng, height, width).values, width,
                                 [f"r{i}" for i in range(1, height + 1)])
        for source in (restrict_source(), "SETALL ma\nSTOREROW A[1] ma\n"
                       f"NOT mb ma\nSTOREROW A[{height}] mb\nHALT\n"):
            state = SequencerState(table, mb=rand_bitvector(rng, width))
            got = run_sequencer(state, assemble(source))
            assert got == reference_run(state, assemble(source), 10 ** 6)
            assert got.memory.row_labels == table.row_labels
            changed += got.memory != table
    assert changed >= 7  # the write-back was exercised


def sweep_step_limit(state, program):
    """Compare with the reference at every step limit from 1 to one past
    the run's steps (the first 60 of a long run), so that the limit lands
    on every instruction of each straight-line run."""
    full = outcome(reference_run, state, program, 10 ** 6)
    steps = full.steps if isinstance(full, SequencerState) else 60
    for max_steps in range(1, min(steps, 60) + 2):
        assert outcome(run_sequencer, state, program, max_steps) == \
            outcome(reference_run, state, program, max_steps)


def bound_sources(height, width):
    """Straight-line runs that read a constant row ``height`` or
    ``height + 1`` and a DEVOR coordinate ``width`` or ``width + 1``, at the
    start, in the middle and at the end of a run, before a HALT, before a
    loop and after one."""
    sources = []
    for row in (height, height + 1):
        for k in (width, width + 1):
            for slot in range(3):
                run = ["SETALL ma", "NOT mb ma", "XOR mc ma mb"]
                run.insert(slot, f"LOADROW md A[{row}]")
                other = ["CLRALL mc", "OR mb mb mc", "NOT md"]
                other.insert(2 - slot, f"DEVOR mc {k} ma")
                sources.append("\n".join(
                    run + ["HALT"] + other + ["LOOP 2", "OR mc A[@] mc",
                                              "ENDLOOP"] + run) + "\n")
    return sources


@pytest.mark.parametrize("height, width", [(3, 5), (1, 1)])
def test_straight_runs_at_their_bounds_match_reference(height, width):
    rng = random.Random(f"bounds/{height}x{width}")
    table = rand_table(rng, max(height, 2), width)
    table = AssociativeTable(table.values[:height], width)
    regs = {reg: rand_bitvector(rng, width) for reg in REGISTERS}
    for source in bound_sources(height, width):
        program = assemble(source)
        for pc in range(len(program.instructions) + 1):
            sweep_step_limit(SequencerState(table, **regs, pc=pc), program)


def grid_of(sources, height, width_of):
    rng = random.Random(f"grid/{len(set(sources))}")
    cells = [SequencerState(rand_table(rng, height, width_of(source)))
             for source in sources]
    return GridState(tuple(cells)), [assemble(source) for source in sources]


def test_identical_cells_compile_once():
    grid, programs = grid_of([feasible_search_source()] * 16, 4, lambda _: 8)
    assert len({id(program) for program in programs}) == 16
    lamp._compiled.cache_clear()
    run_grid(grid, programs)
    assert lamp._compiled.cache_info().misses == 1


def test_benchmark_shaped_grid_compiles_five_programs():
    diagnosis = [diagnosis_source(64), diagnosis_source(64, "multiple")]
    sources = [feasible_search_source()] * 4 + \
        [coverage_search_source()] * 4 + [restrict_source()] * 4 + \
        [diagnosis[0]] * 2 + [diagnosis[1]] * 2
    grid, programs = grid_of(sources, 8,
                             lambda source: 64 if source in diagnosis else 16)
    lamp._compiled.cache_clear()
    out = run_grid(grid, programs)
    assert lamp._compiled.cache_info().misses == 5
    for cell, program, result in zip(grid.cells, programs, out.cells):
        assert result == reference_run(cell, program, DEFAULT_MAX_STEPS)


def test_a_faulting_run_compiles_nothing():
    program = assemble("LOOP *\nOR ma A[@] ma\nENDLOOP\nLOADROW mb A[2]\n"
                       "HALT\n")
    lamp._compiled.cache_clear()
    with pytest.raises(RowOutOfRange):
        run_sequencer(fresh(["10"]), program)
    with pytest.raises(StepLimitExceeded):
        run_sequencer(fresh(["10", "01"]), program, 5)
    assert lamp._compiled.cache_info().misses == 0
    for _ in range(2):
        out = run_sequencer(fresh(["10", "01"]), program)
        assert (out.ma, out.mb, out.steps) == (bv("11"), bv("01"), 7)
    assert lamp._compiled.cache_info().misses == 1


def test_the_loop_plan_is_derived_once_per_program(monkeypatch):
    """``assemble`` builds a program's loop plan; no run and no
    ``emit_source`` builds it again, and a copy or pickle rebuilds it from
    the source alone."""
    calls, plan = [], lamp._loops

    def counted(code):
        calls.append(code)
        return plan(code)

    monkeypatch.setattr(lamp, "_loops", counted)
    program = assemble(diagnosis_source(8))
    assert len(calls) == 1
    diagnosis = [diagnosis_source(64), diagnosis_source(64, "multiple")]
    sources = [feasible_search_source()] * 4 + \
        [coverage_search_source()] * 4 + [restrict_source()] * 4 + \
        [diagnosis[0]] * 2 + [diagnosis[1]] * 2
    grid, programs = grid_of(sources, 8,
                             lambda source: 64 if source in diagnosis else 16)
    assert len(calls) == 17
    lamp._compiled.cache_clear()
    run_grid(grid, programs)
    for cell, each in zip(grid.cells, programs):
        run_sequencer(cell, each)
        emit_source(each)
        emit_source(each, 3)
    assert lamp._compiled.cache_info().misses == 5
    assert len(calls) == 17
    state = SequencerState(with_response_column(
        rand_table(random.Random("plan"), 6, 7), bv("101100")))
    for twin in (pickle.loads(pickle.dumps(program)), copy.deepcopy(program),
                 copy.copy(program)):
        assert twin == program and twin is not program
        assert (hash(twin), repr(twin)) == (hash(program), repr(program))
        assert (twin.instructions, twin.loops) == \
            (program.instructions, program.loops)
        assert run_sequencer(state, twin) == run_sequencer(state, program)


BENCHMARK_SHAPED = {  # perfbench's sim-grid programs at its table shapes
    "feasible": (feasible_search_source(), 160, 160),
    "coverage": (coverage_search_source(), 160, 160),
    "restrict": (restrict_source(), 160, 160),
    "diagnosis-single": (diagnosis_source(64), 160, 64),
    "diagnosis-multiple": (diagnosis_source(64, "multiple"), 160, 64),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_SHAPED))
def test_step_limits_deep_in_long_loops_match_reference(name):
    """``sweep_step_limit`` reaches the first 60 steps only; here the limit
    lands on a long run's last step, the one before it, and each loop's
    final ENDLOOP and the steps either side of it."""
    source, height, width = BENCHMARK_SHAPED[name]
    rng = random.Random(f"deep/{name}")
    state = SequencerState(rand_table(rng, height, width),
                           **{reg: rand_bitvector(rng, width)
                              for reg in REGISTERS})
    program = assemble(source)
    code = program.instructions
    total = reference_run(state, program, 10 ** 6).steps
    limits, repeats = {total - 1, total}, 0
    marks = [pc for pc, ins in enumerate(code)
             if ins.opcode in ("loop", "endloop")]
    for loop, end in zip(marks[::2], marks[1::2]):  # each one a LOOP *
        repeats += (height - 1) * (end - loop)
        final = end + 1 + repeats  # the step that runs this ENDLOOP
        limits |= {final - 1, final, final + 1}
    assert final + len(code) - end - 1 == total  # the rest, HALT included
    for max_steps in sorted(limits):
        assert outcome(run_sequencer, state, program, max_steps) == \
            outcome(reference_run, state, program, max_steps)


def test_readme_shows_the_emitted_source():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    call = "print(emit_source(assemble(restrict_source())))\n```\n\nprints\n"
    shown = readme.split(call, 1)[1].split("```python\n", 1)[1]
    assert shown.split("```", 1)[0] == emit_source(assemble(restrict_source()))


# ---------------------------------------------------------------------------
# Fuzz of `veclog sim`: any program text ends in exit 0, 1 or 2, and reruns
# print the same report.

_TOKENS = [*lamp._OPS] + [op.upper() for op in lamp._OPS] + [
    "ma", "mb", "mc", "md", "MA", "me", "A[1]", "A[3]", "A[4]", "A[0]",
    "A[@]", "a[@]", "A[", "@", "*", "0", "1", "2", "3", "4", "5", "99", "-1",
    "1.5", "x:", "start:", "1x:", ";", "; note", "foo"]


@settings(max_examples=300)
@given(st.lists(st.lists(st.sampled_from(_TOKENS), max_size=5), max_size=12))
def test_sim_never_escapes(tmp_path_factory, lines):
    workdir = tmp_path_factory.getbasetemp()
    program, data = workdir / "fuzz.lamp", workdir / "fuzz.tbl"
    program.write_text("\n".join(" ".join(words) for words in lines) + "\n",
                       encoding="ascii")
    data.write_text("3 4\n1100\n0110\n1011\n")
    argv = ["sim", str(program), str(data), "--max-steps", "1000"]
    reports = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        reports.append(out.getvalue())
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# Differential test of the assembler against the regex-based one it
# replaced, kept here as the reference the way reference_run mirrors the
# executor.

_REF_ROW = re.compile(r"^a\[(\d+|@)\]$", re.IGNORECASE)
_REF_LABEL = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _ref_register(token, line, in_loop=False):
    name = token.lower()
    if name not in REGISTERS:
        raise UnknownRegister(f"unknown register {token!r}", line)
    return name


def _ref_row(token, line, in_loop):
    match = _REF_ROW.match(token)
    if not match:
        raise AssemblyError(f"expected a row reference like A[1], got {token!r}",
                            line)
    body = match.group(1)
    if body == "@":
        if not in_loop:
            raise AssemblyError("A[@] is only meaningful inside a LOOP", line)
        return 0
    index = decimal(body, line, AssemblyError)
    if index < 1:
        raise AssemblyError("row numbers start at 1", line)
    return index


def _ref_number(token, line, in_loop, wildcard, what):
    if token == wildcard:
        if wildcard == "@" and not in_loop:
            raise AssemblyError("@ is only meaningful inside a LOOP", line)
        return 0
    if token.isdecimal():
        value = decimal(token, line, AssemblyError)
        if value >= 1:
            return value
    raise AssemblyError(f"{what} must be a positive integer or {wildcard}, "
                        f"got {token!r}", line)


_REF_KINDS = {
    "r": _ref_register, "R": _ref_row,
    "s": lambda token, line, in_loop: (_ref_row if _REF_ROW.match(token)
                                       else _ref_register)(token, line, in_loop),
    "k": partial(_ref_number, wildcard="@", what="DEVOR index"),
    "n": partial(_ref_number, wildcard="*", what="LOOP count"),
}


def reference_assemble(source):
    if not source.strip():
        raise EmptyInput("empty program source")
    instructions = []
    labels = set()
    loop_line = None  # line of the open LOOP
    for lineno, raw in enumerate(source.splitlines(), start=1):
        tokens = raw.split(";", 1)[0].split()
        while tokens and tokens[0].endswith(":"):
            name = tokens[0][:-1]
            if not _REF_LABEL.match(name):
                raise AssemblyError(f"bad label {tokens[0]!r}", lineno)
            if name in labels:
                raise AssemblyError(f"duplicate label {name!r}", lineno)
            labels.add(name)
            tokens = tokens[1:]
        if not tokens:
            continue
        opcode = tokens[0].lower()
        if opcode not in lamp._OPS:
            raise AssemblyError(f"unknown operation {tokens[0]!r}", lineno)
        shape = lamp._OPS[opcode][0]
        kinds, optional = shape.rstrip("?"), shape.endswith("?")
        operands = tokens[1:]
        if optional and len(operands) == len(kinds) - 1:
            operands.append(operands[0])  # operate on a register in place
        if len(operands) != len(kinds):
            wanted = f"{len(kinds) - 1} or {len(kinds)}" if optional \
                else len(kinds)
            raise BadArity(f"{opcode} expects {wanted} "
                           f"operands, got {len(operands)}", lineno)
        in_loop = loop_line is not None
        if opcode in ("loop", "endloop"):
            if in_loop == (opcode == "loop"):
                raise AssemblyError("LOOP does not nest" if in_loop
                                    else "ENDLOOP without LOOP", lineno)
            loop_line = None if in_loop else lineno
        fields, imm = [], None
        for kind, token in zip(kinds, operands):
            value = _REF_KINDS[kind](token, lineno, in_loop)
            if kind in "kn":
                imm = value
            else:
                fields.append(value)
        fields += [None] * (3 - len(fields))  # dst, src1, src2
        instructions.append(Instruction(opcode, *fields, imm, lineno))
    if loop_line is not None:
        raise AssemblyError("LOOP never closed", loop_line)
    return tuple(instructions)


# numbers as int() reads them but the ASCII digits do not spell them, and
# tokens one character away from a row, a register or a label
_ODD_TOKENS = [
    "\u00b2", "\u0663", "\u0661\u0660", "A[\u00b2]", "A[\u0663]",
    "a[\u0661\u0660]", "A[01]", "A[]", "a[1]]", "A[1x]", "[1]", "A[-1]",
    "Ma", "mA", "MD", "m", "A[" + "1" * 4301 + "]", "1" * 4301, "_l2:",
    "\u00e9:", "a-b:", ":", "x::", "A[@]:", "\uff41[1]", "\u212a"]


def random_asm_source(rng):
    """A few lines, each a run of random tokens or a well-formed use of a
    random opcode (its operands drawn per shape letter), now and then with
    labels in front and a comment behind."""
    def register():
        return rng.choice(("ma", "mb", "mc", "md", "MA", "Mc", "me"))

    def row():
        return rng.choice(("A", "a")) + "[" + rng.choice(
            ("1", "3", "@", "@", "0", "\u0663", "\u00b2", "12")) + "]"

    def number(wildcard):
        return rng.choice((wildcard, wildcard, "1", "4", "64", "0", "\u0663",
                           "\u00b2", "-1", "x"))

    operand = {"r": register, "R": row, "k": lambda: number("@"),
               "n": lambda: number("*"),
               "s": lambda: row() if rng.random() < 0.5 else register()}
    tokens = _TOKENS + _ODD_TOKENS
    lines = []
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.3:
            words = [rng.choice(tokens) for _ in range(rng.randint(0, 5))]
        else:
            opcode = rng.choice(list(lamp._OPS))
            shape = lamp._OPS[opcode][0]
            kinds = shape.rstrip("?")
            if shape.endswith("?") and rng.random() < 0.3:
                kinds = kinds[:-1]
            name = rng.choice((opcode, opcode.upper(), opcode.title()))
            words = [name] + [operand[kind]() for kind in kinds]
        while rng.random() < 0.15:
            words.insert(0, rng.choice(("x:", "start:", "_l2:", "1x:",
                                        "\u00e9:", "a-b:")))
        if rng.random() < 0.2:
            words.append("; " + rng.choice(_TOKENS))
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


def assembled(assemble_source, source):
    try:
        return [repr(ins) for ins in assemble_source(source)]
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def test_assembler_matches_reference():
    rng = random.Random("assembler")
    kinds = set()
    for _ in range(6000):
        source = random_asm_source(rng)
        got = assembled(lamp._assemble, source)
        assert got == assembled(reference_assemble, source), source
        kinds.add(got[0] if isinstance(got, tuple) else "ok")
    # both outcomes, and each kind of error, were drawn
    assert kinds == {"ok", AssemblyError, UnknownRegister, BadArity,
                     EmptyInput}
