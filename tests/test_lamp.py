import random

import pytest

from helpers import rand_bitvector, rand_table
from veclog.assoc import (
    AssociativeTable,
    DiagnosisMode,
    diagnose,
    feasible_mask,
    restrict,
)
from veclog.cover import CoverageInstance, greedy_cover
from veclog.lamp import (
    AssemblyError,
    BadArity,
    BitOutOfRange,
    GridCellError,
    GridState,
    Opcode,
    Program,
    RowOutOfRange,
    SequencerState,
    StepLimitExceeded,
    UnknownRegister,
    assemble,
    coverage_search_source,
    diagnosis_source,
    feasible_search_source,
    quality_source,
    restrict_source,
    run_grid,
    run_sequencer,
    with_response_column,
)
from veclog.metric import quality_vector
from veclog.vlcore import BitVector, EmptyInput, slc

rng_seed = 41


def bv(s):
    return BitVector.from_string(s)


def fresh(rows, **presets):
    table = AssociativeTable([bv(r) for r in rows])
    return SequencerState.fresh(table, **presets)


class TestAssemble:
    def test_single_binary_instruction(self):
        program = assemble("XOR md ma mb\n")
        assert len(program) == 1
        assert program.instructions[0].opcode is Opcode.XOR

    def test_single_nop(self):
        program = assemble("NOP ma\n")
        ins = program.instructions[0]
        assert ins.opcode is Opcode.NOP
        assert ins.dst == ins.src1 == "ma"

    def test_quality_program_assembles(self):
        program = assemble(quality_source())
        assert len(program) == 11

    def test_shipped_programs_assemble(self):
        for source in (feasible_search_source(), coverage_search_source(),
                       restrict_source(), diagnosis_source(5),
                       diagnosis_source(5, DiagnosisMode.MULTIPLE)):
            assemble(source)

    def test_comments_and_labels(self):
        program = assemble("start: AND ma ma mb ; comment\nagain: HALT\n")
        assert [ins.opcode for ins in program.instructions] == \
            [Opcode.AND, Opcode.HALT]

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

    def test_empty_source(self):
        with pytest.raises(EmptyInput):
            assemble("   \n  \n")

    def test_comment_only_source_is_an_empty_program(self):
        assert len(assemble("; nothing to do\n")) == 0


class TestRunSequencer:
    def test_quality_reduction_example(self):
        program = assemble("LOADROW ma A[1]\nXOR md ma mb\nHALT\n")
        state = fresh(["000011110101"], mb=bv("110011001100"))
        out = run_sequencer(state, program)
        assert out.regs["md"] == bv("110000111001")
        assert out.halted
        assert out.steps == 3

    def test_nop_program_leaves_registers(self):
        state = fresh(["1010"], ma=bv("1100"))
        out = run_sequencer(state, assemble("NOP ma\nHALT\n"))
        assert out.regs == state.regs
        assert out.memory.rows == state.memory.rows
        assert out.halted

    def test_input_state_not_mutated(self):
        state = fresh(["1111"])
        run_sequencer(state, assemble("SETALL ma\nSTOREROW A[1] ma\nHALT\n"))
        assert state.regs["ma"] == bv("0000")
        assert str(state.memory.rows[0]) == "1111"

    def test_setall_clrall_devor(self):
        program = assemble("SETALL ma\nCLRALL mb\nDEVOR mb 3 ma\nHALT\n")
        out = run_sequencer(fresh(["0000"]), program)
        assert out.regs["ma"] == bv("1111")
        assert out.regs["mb"] == bv("0010")

    def test_slc_and_not(self):
        program = assemble("LOADROW ma A[1]\nSLC mb ma\nNOT mc ma\nHALT\n")
        out = run_sequencer(fresh(["0101"]), program)
        assert out.regs["mb"] == bv("1100")
        assert out.regs["mc"] == bv("1010")

    def test_storerow_visible_to_later_reads(self):
        program = assemble(
            "SETALL ma\nSTOREROW A[2] ma\nLOADROW mb A[2]\nHALT\n")
        out = run_sequencer(fresh(["0000", "0000"]), program)
        assert out.regs["mb"] == bv("1111")
        assert str(out.memory.rows[1]) == "1111"

    def test_loop_star_runs_once_per_row(self):
        program = assemble("LOOP *\nOR ma A[@] ma\nENDLOOP\nHALT\n")
        out = run_sequencer(fresh(["1000", "0010", "0001"]), program)
        assert out.regs["ma"] == bv("1011")

    def test_loop_literal_count(self):
        program = assemble("LOOP 2\nOR ma A[@] ma\nENDLOOP\nHALT\n")
        out = run_sequencer(fresh(["1000", "0010", "0001"]), program)
        assert out.regs["ma"] == bv("1010")

    def test_devor_loop_index(self):
        program = assemble("LOOP *\nDEVOR ma @ A[@]\nENDLOOP\nHALT\n")
        out = run_sequencer(fresh(["0100", "0000", "1111", "0000"]), program)
        assert out.regs["ma"] == bv("1010")

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
        assert out.halted
        assert out.regs["ma"] == bv("11")

    def test_determinism(self):
        rng = random.Random(rng_seed)
        table = rand_table(rng, 5, 8)
        program = assemble(coverage_search_source())
        first = run_sequencer(SequencerState.fresh(table), program)
        second = run_sequencer(SequencerState.fresh(table), program)
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
                SequencerState.fresh(AssociativeTable([row]), mb=query),
                program)
            expected = quality_vector(query, row).quality
            assert out.regs["mc"] == expected
            assert out.regs["md"] == slc(expected)

    def test_feasibility_program_matches_library(self):
        rng = random.Random(rng_seed + 1)
        program = assemble(feasible_search_source())
        for _ in range(30):
            w = rng.randint(3, 12)
            n = rng.randint(1, w)
            table = rand_table(rng, n, w)
            query = rand_bitvector(rng, w)
            out = run_sequencer(SequencerState.fresh(table, mb=query), program)
            mask = feasible_mask(table, query)
            assert out.regs["ma"] == BitVector(mask.value << (w - n), w)

    def test_coverage_program_matches_library(self):
        rng = random.Random(rng_seed + 2)
        program = assemble(coverage_search_source())
        for _ in range(30):
            w = rng.randint(3, 12)
            n = rng.randint(1, w)
            table = rand_table(rng, n, w)
            out = run_sequencer(SequencerState.fresh(table), program)
            taken = greedy_cover(CoverageInstance(table))
            assert out.regs["ma"] == BitVector(taken.value << (w - n), w)

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
                out = run_sequencer(SequencerState.fresh(augmented), program)
                lib = diagnose(table, response, mode).candidates
                assert out.regs["mb"] == BitVector(lib.value << 1, w + 1)

    def test_restrict_program_matches_library(self):
        rng = random.Random(rng_seed + 4)
        program = assemble(restrict_source())
        for _ in range(20):
            table = rand_table(rng, rng.randint(1, 8), rng.randint(2, 10))
            query = rand_bitvector(rng, table.width)
            out = run_sequencer(SequencerState.fresh(table, mb=query), program)
            assert out.memory.rows == restrict(table, query).rows

    def test_every_opcode_is_shipped(self):
        shipped = (quality_source() + feasible_search_source()
                   + coverage_search_source() + restrict_source()
                   + diagnosis_source(4))
        used = {ins.opcode
                for src in (quality_source(), feasible_search_source(),
                            coverage_search_source(), restrict_source(),
                            diagnosis_source(4))
                for ins in assemble(src).instructions}
        assert used == set(Opcode), f"missing: {set(Opcode) - used}"
        assert shipped  # sanity


class TestGrid:
    def test_sixteen_identical_cells(self):
        rng = random.Random(rng_seed + 5)
        table = rand_table(rng, 4, 6)
        query = rand_bitvector(rng, 6)
        cell = SequencerState.fresh(table, mb=query)
        program = assemble(feasible_search_source())
        out = run_grid(GridState((cell,) * 16), [program] * 16)
        assert all(c == out.cells[0] for c in out.cells)
        assert out.cell(1, 1) == run_sequencer(cell, program)

    def test_grid_equals_independent_runs(self):
        rng = random.Random(rng_seed + 6)
        cells, programs = [], []
        for _ in range(16):
            height = rng.randint(1, 4)  # row masks need height <= width
            table = rand_table(rng, height, rng.randint(height, 6))
            cells.append(SequencerState.fresh(
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
        cells = [SequencerState.fresh(table_a, mb=query),
                 SequencerState.fresh(table_b),
                 SequencerState.fresh(augmented)]
        cells += [SequencerState.fresh(rand_table(rng, 1, 8))] * 13
        programs = [assemble(feasible_search_source()),
                    assemble(coverage_search_source()),
                    assemble(diagnosis_source(augmented.width))]
        programs += [assemble("HALT\n")] * 13
        out = run_grid(GridState(tuple(cells)), programs)
        mask = feasible_mask(table_a, query)
        assert out.cell(1, 1).regs["ma"] == BitVector(mask.value << 4, 8)
        taken = greedy_cover(CoverageInstance(table_b))
        assert out.cell(1, 2).regs["ma"] == BitVector(taken.value << 3, 8)
        located = diagnose(table_c, response).candidates
        assert out.cell(1, 3).regs["mb"] == BitVector(located.value << 1, 9)

    def test_empty_programs_leave_grid_unchanged(self):
        rng = random.Random(rng_seed + 8)
        cells = tuple(SequencerState.fresh(rand_table(rng, 2, 4))
                      for _ in range(16))
        out = run_grid(GridState(cells), [assemble("; idle\n")] * 16)
        for before, after in zip(cells, out.cells):
            assert after.regs == before.regs
            assert after.memory.rows == before.memory.rows
            assert after.halted

    def test_cell_error_carries_coordinates(self):
        rng = random.Random(rng_seed + 9)
        cells = [SequencerState.fresh(rand_table(rng, 2, 4))
                 for _ in range(16)]
        programs = [assemble("HALT\n")] * 16
        programs[6] = assemble("LOADROW ma A[9]\nHALT\n")  # cell (2,3)
        with pytest.raises(GridCellError) as err:
            run_grid(GridState(tuple(cells)), programs)
        assert (err.value.row, err.value.col) == (2, 3)
        assert isinstance(err.value.cause, RowOutOfRange)

    def test_grid_needs_sixteen_programs(self):
        rng = random.Random(rng_seed + 10)
        grid = GridState((SequencerState.fresh(rand_table(rng, 1, 2)),) * 16)
        with pytest.raises(ValueError):
            run_grid(grid, [assemble("HALT\n")] * 15)
