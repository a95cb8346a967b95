"""Deterministic simulator of a vector-logic sequencer and a 4x4 grid of them.

A sequencer owns an associative data memory (a table), four registers
ma..md as wide as the table, and a program.  Programs are line-oriented
assembly; ``;`` starts a comment and ``name:`` defines an (inert) label:

    AND dst src1 src2      and/or/xor: dst, src2 are registers; src1 may
    OR  dst src1 src2      also be a stored row A[i] or, inside a loop,
    XOR dst src1 src2      the current row A[@]
    NOT dst src            unary ops accept a register or a row as src;
    SLC dst src            with one operand they act on a register in
    NOP dst src            place (NOT: complement, SLC: crowd 1s left,
                           NOP: plain transfer / no-op)
    LOADROW dst A[i]
    STOREROW A[i] src
    DEVOR dst k src        write OR-reduce(src) into coordinate k of dst;
                           k is a 1-based index or @ (the loop row number)
    SETALL dst / CLRALL dst
    LOOP n / LOOP *        run the body n times (*: once per stored row),
    ENDLOOP                binding @ to 1..n; loops do not nest
    HALT

Execution is a pure function of (state, program): rerunning is bit-identical.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence, Union

from veclog.assoc import AssociativeTable, DiagnosisMode
from veclog.vlcore import BitVector, EmptyInput, devectorize, slc

REGISTERS = ("ma", "mb", "mc", "md")
DEFAULT_MAX_STEPS = 1_000_000


class AssemblyError(ValueError):
    """Program text rejected; carries the 1-based source line."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class UnknownRegister(AssemblyError):
    pass


class BadArity(AssemblyError):
    pass


class SimulationError(RuntimeError):
    """Raised while executing an assembled program."""


class StepLimitExceeded(SimulationError):
    pass


class RowOutOfRange(SimulationError):
    pass


class BitOutOfRange(SimulationError):
    pass


class Opcode(Enum):
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SLC = "slc"
    NOP = "nop"
    LOADROW = "loadrow"
    STOREROW = "storerow"
    DEVOR = "devor"
    SETALL = "setall"
    CLRALL = "clrall"
    LOOP = "loop"
    ENDLOOP = "endloop"
    HALT = "halt"


@dataclass(frozen=True)
class RowRef:
    """Reference to a stored row; index None means the current loop row."""

    index: Optional[int]


Operand = Union[str, RowRef, None]


@dataclass(frozen=True)
class Instruction:
    opcode: Opcode
    dst: Operand = None
    src1: Operand = None
    src2: Optional[str] = None
    imm: Optional[int] = None  # LOOP count (None = *), DEVOR index (None = @)
    line: int = 0


@dataclass(frozen=True)
class Program:
    instructions: tuple[Instruction, ...]
    loop_end: Mapping[int, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.instructions)


# ---------------------------------------------------------------------------
# Assembler

_ROW_RE = re.compile(r"^a\[(\d+|@)\]$", re.IGNORECASE)
_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_ARITY = {
    Opcode.AND: (3,), Opcode.OR: (3,), Opcode.XOR: (3,), Opcode.DEVOR: (3,),
    Opcode.NOT: (1, 2), Opcode.SLC: (1, 2), Opcode.NOP: (1, 2),
    Opcode.LOADROW: (2,), Opcode.STOREROW: (2,),
    Opcode.SETALL: (1,), Opcode.CLRALL: (1,), Opcode.LOOP: (1,),
    Opcode.ENDLOOP: (0,), Opcode.HALT: (0,),
}


def _register(token: str, line: int) -> str:
    name = token.lower()
    if name not in REGISTERS:
        raise UnknownRegister(f"unknown register {token!r}", line)
    return name


def _row(token: str, line: int, in_loop: bool) -> RowRef:
    match = _ROW_RE.match(token)
    if not match:
        raise AssemblyError(f"expected a row reference like A[1], got {token!r}",
                            line)
    body = match.group(1)
    if body == "@":
        if not in_loop:
            raise AssemblyError("A[@] is only meaningful inside a LOOP", line)
        return RowRef(None)
    index = int(body)
    if index < 1:
        raise AssemblyError("row numbers start at 1", line)
    return RowRef(index)


def _register_or_row(token: str, line: int, in_loop: bool) -> Operand:
    if _ROW_RE.match(token):
        return _row(token, line, in_loop)
    return _register(token, line)


def assemble(source: str) -> Program:
    """Assemble program text; raises on the first malformed line."""
    if not source.strip():
        raise EmptyInput("empty program source")
    instructions: list[Instruction] = []
    labels: set[str] = set()
    loop_end: dict[int, int] = {}
    open_loop: Optional[int] = None
    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.split(";", 1)[0].strip()
        if not text:
            continue
        tokens = text.split()
        while tokens and tokens[0].endswith(":"):
            name = tokens[0][:-1]
            if not _LABEL_RE.match(name):
                raise AssemblyError(f"bad label {tokens[0]!r}", lineno)
            if name in labels:
                raise AssemblyError(f"duplicate label {name!r}", lineno)
            labels.add(name)
            tokens = tokens[1:]
        if not tokens:
            continue
        try:
            opcode = Opcode(tokens[0].lower())
        except ValueError:
            raise AssemblyError(f"unknown operation {tokens[0]!r}", lineno) from None
        operands = tokens[1:]
        if len(operands) not in _ARITY[opcode]:
            wanted = " or ".join(str(n) for n in _ARITY[opcode])
            raise BadArity(f"{opcode.value} expects {wanted} "
                           f"operands, got {len(operands)}", lineno)
        in_loop = open_loop is not None
        if opcode in (Opcode.AND, Opcode.OR, Opcode.XOR):
            ins = Instruction(opcode, dst=_register(operands[0], lineno),
                              src1=_register_or_row(operands[1], lineno, in_loop),
                              src2=_register(operands[2], lineno), line=lineno)
        elif opcode in (Opcode.NOT, Opcode.SLC, Opcode.NOP):
            # one operand: operate on a register in place
            dst = _register(operands[0], lineno)
            src = dst if len(operands) == 1 else \
                _register_or_row(operands[1], lineno, in_loop)
            ins = Instruction(opcode, dst=dst, src1=src, line=lineno)
        elif opcode is Opcode.LOADROW:
            ins = Instruction(opcode, dst=_register(operands[0], lineno),
                              src1=_row(operands[1], lineno, in_loop), line=lineno)
        elif opcode is Opcode.STOREROW:
            ins = Instruction(opcode, dst=_row(operands[0], lineno, in_loop),
                              src1=_register(operands[1], lineno), line=lineno)
        elif opcode is Opcode.DEVOR:
            if operands[1] == "@":
                if not in_loop:
                    raise AssemblyError("@ is only meaningful inside a LOOP",
                                        lineno)
                imm = None
            elif operands[1].isdigit() and int(operands[1]) >= 1:
                imm = int(operands[1])
            else:
                raise AssemblyError(f"DEVOR index must be a positive integer "
                                    f"or @, got {operands[1]!r}", lineno)
            ins = Instruction(opcode, dst=_register(operands[0], lineno),
                              src1=_register_or_row(operands[2], lineno, in_loop),
                              imm=imm, line=lineno)
        elif opcode in (Opcode.SETALL, Opcode.CLRALL):
            ins = Instruction(opcode, dst=_register(operands[0], lineno),
                              line=lineno)
        elif opcode is Opcode.LOOP:
            if open_loop is not None:
                raise AssemblyError("LOOP does not nest", lineno)
            if operands[0] == "*":
                imm = None
            elif operands[0].isdigit() and int(operands[0]) >= 1:
                imm = int(operands[0])
            else:
                raise AssemblyError(f"LOOP count must be a positive integer "
                                    f"or *, got {operands[0]!r}", lineno)
            open_loop = len(instructions)
            ins = Instruction(opcode, imm=imm, line=lineno)
        elif opcode is Opcode.ENDLOOP:
            if open_loop is None:
                raise AssemblyError("ENDLOOP without LOOP", lineno)
            loop_end[open_loop] = len(instructions)
            open_loop = None
            ins = Instruction(opcode, line=lineno)
        else:  # HALT
            ins = Instruction(opcode, line=lineno)
        instructions.append(ins)
    if open_loop is not None:
        raise AssemblyError("LOOP never closed",
                            instructions[open_loop].line)
    return Program(tuple(instructions), loop_end)


# ---------------------------------------------------------------------------
# Execution

@dataclass(frozen=True)
class SequencerState:
    """One sequencer: data memory, the four registers, and run bookkeeping.

    ``steps`` counts instructions executed by the run that produced the
    state; fresh states carry 0.
    """

    memory: AssociativeTable
    regs: Mapping[str, BitVector]
    pc: int = 0
    halted: bool = False
    steps: int = 0

    @classmethod
    def fresh(cls, memory: AssociativeTable,
              **presets: BitVector) -> "SequencerState":
        width = memory.width
        regs = {}
        for name in REGISTERS:
            value = presets.pop(name, None)
            if value is None:
                value = BitVector.zeros(width)
            elif value.length != width:
                raise ValueError(f"register {name} preset has width "
                                 f"{value.length}, memory width is {width}")
            regs[name] = value
        if presets:
            raise ValueError(f"unknown registers: {sorted(presets)}")
        return cls(memory, regs)


def run_sequencer(state: SequencerState, program: Program,
                  max_steps: int = DEFAULT_MAX_STEPS) -> SequencerState:
    """Execute until HALT or the end of the program; the input state is
    never mutated."""
    width = state.memory.width
    regs = dict(state.regs)
    rows = list(state.memory.rows)
    height = len(rows)
    modified = False
    code = program.instructions
    pc = state.pc
    steps = 0
    halted = False
    loop: Optional[list] = None  # [loop_pc, end_pc, count, current_row]

    def row_index(ref: RowRef, line: int) -> int:
        number = ref.index
        if number is None:
            assert loop is not None
            number = loop[3]
        if not 1 <= number <= height:
            raise RowOutOfRange(f"row {number} out of 1..{height} "
                                f"(line {line})")
        return number - 1

    def resolve(operand: Operand, line: int) -> BitVector:
        if isinstance(operand, RowRef):
            return rows[row_index(operand, line)]
        return regs[operand]

    while not halted and pc < len(code):
        if steps >= max_steps:
            raise StepLimitExceeded(f"exceeded {max_steps} steps")
        ins = code[pc]
        steps += 1
        op = ins.opcode
        next_pc = pc + 1
        if op is Opcode.HALT:
            halted = True
        elif op is Opcode.AND:
            regs[ins.dst] = resolve(ins.src1, ins.line) & regs[ins.src2]
        elif op is Opcode.OR:
            regs[ins.dst] = resolve(ins.src1, ins.line) | regs[ins.src2]
        elif op is Opcode.XOR:
            regs[ins.dst] = resolve(ins.src1, ins.line) ^ regs[ins.src2]
        elif op is Opcode.NOT:
            regs[ins.dst] = ~resolve(ins.src1, ins.line)
        elif op is Opcode.SLC:
            regs[ins.dst] = slc(resolve(ins.src1, ins.line))
        elif op is Opcode.NOP:
            regs[ins.dst] = resolve(ins.src1, ins.line)
        elif op is Opcode.LOADROW:
            regs[ins.dst] = rows[row_index(ins.src1, ins.line)]
        elif op is Opcode.STOREROW:
            rows[row_index(ins.dst, ins.line)] = regs[ins.src1]
            modified = True
        elif op is Opcode.DEVOR:
            k = ins.imm
            if k is None:
                assert loop is not None
                k = loop[3]
            if not 1 <= k <= width:
                raise BitOutOfRange(f"coordinate {k} out of 1..{width} "
                                    f"(line {ins.line})")
            bit = devectorize(resolve(ins.src1, ins.line))
            regs[ins.dst] = regs[ins.dst].with_bit(k, bit)
        elif op is Opcode.SETALL:
            regs[ins.dst] = BitVector.ones(width)
        elif op is Opcode.CLRALL:
            regs[ins.dst] = BitVector.zeros(width)
        elif op is Opcode.LOOP:
            count = ins.imm if ins.imm is not None else height
            loop = [pc, program.loop_end[pc], count, 1]
        elif op is Opcode.ENDLOOP:
            assert loop is not None
            if loop[3] < loop[2]:
                loop[3] += 1
                next_pc = loop[0] + 1
            else:
                loop = None
        pc = next_pc
    if pc >= len(code):
        halted = True
    memory = state.memory
    if modified:
        memory = AssociativeTable(rows, state.memory.row_labels,
                                  state.memory.col_labels)
    return SequencerState(memory, regs, pc, halted, steps)


GRID_SIDE = 4
GRID_CELLS = GRID_SIDE * GRID_SIDE


class GridCellError(SimulationError):
    """A cell's program failed; carries the 1-based grid coordinates."""

    def __init__(self, row: int, col: int, cause: Exception):
        self.row = row
        self.col = col
        self.cause = cause
        super().__init__(f"cell ({row},{col}): {cause}")


@dataclass(frozen=True)
class GridState:
    """4x4 grid of independent sequencers, stored row-major."""

    cells: tuple[SequencerState, ...]

    def __post_init__(self):
        if len(self.cells) != GRID_CELLS:
            raise ValueError(f"grid needs {GRID_CELLS} cells, "
                             f"got {len(self.cells)}")

    def cell(self, row: int, col: int) -> SequencerState:
        if not (1 <= row <= GRID_SIDE and 1 <= col <= GRID_SIDE):
            raise IndexError(f"cell ({row},{col}) outside the "
                             f"{GRID_SIDE}x{GRID_SIDE} grid")
        return self.cells[(row - 1) * GRID_SIDE + (col - 1)]


def run_grid(grid: GridState, programs: Sequence[Program],
             max_steps: int = DEFAULT_MAX_STEPS) -> GridState:
    """Run one program per cell; cells share nothing, so the result equals
    the tuple of independent sequencer runs."""
    if len(programs) != GRID_CELLS:
        raise ValueError(f"need {GRID_CELLS} programs, got {len(programs)}")
    cells = []
    for idx, (cell, program) in enumerate(zip(grid.cells, programs)):
        try:
            cells.append(run_sequencer(cell, program, max_steps))
        except Exception as exc:
            raise GridCellError(idx // GRID_SIDE + 1, idx % GRID_SIDE + 1,
                                exc) from exc
    return GridState(tuple(cells))


# ---------------------------------------------------------------------------
# Shipped microprograms.  Each mirrors one library operation; the
# equivalence is part of the test suite.

def quality_source(row: int = 1) -> str:
    """Interaction quality of the query in mb against stored row ``row``:
    the raw quality vector lands in mc, its compacted form in md."""
    return f"""\
; interaction quality of the query (mb) against a stored row
LOADROW ma A[{row}]
AND mc ma mb      ; overlap of query and row
NOT mc           ; coordinates outside the overlap
AND md ma mc      ; row-only coordinates
AND mc mb mc      ; query-only coordinates
OR  md md mc      ; either-only: one-sided membership defects
XOR mc ma mb      ; coordinatewise mismatch
OR  md md mc      ; full quality vector
NOP mc md         ; keep the raw quality vector in mc
SLC md            ; crowd the 1s leftward for grading
HALT
"""


def feasible_search_source() -> str:
    """Row-feasibility mask for the query in mb, accumulated in ma:
    coordinate i is 0 when row i contains the query, 1 when it contradicts."""
    return """\
; feasibility of every stored row against the query (mb)
CLRALL ma
LOOP *
  AND mc A[@] mb
  XOR mc mc mb    ; zero iff the query is contained in the row
  DEVOR ma @ mc
ENDLOOP
HALT
"""


def coverage_search_source() -> str:
    """Greedy cover scan: rows taken are marked in ma; mb tracks the
    columns covered so far."""
    return """\
; quasi-optimal cover: one pass over the stored rows
CLRALL mb
CLRALL ma
LOOP *
  OR  mc A[@] mb  ; columns covered if this row is taken
  NOT md mb       ; columns still uncovered
  AND mc mc md    ; columns this row newly covers
  DEVOR ma @ mc   ; take the row iff it adds coverage
  OR  mb mb mc    ; absorb the new columns
ENDLOOP
HALT
"""


def restrict_source() -> str:
    """Intersect every stored row with the query in mb, writing back in
    place."""
    return """\
; drop coordinates that cannot matter for the query (mb), row by row
LOOP *
  AND mc A[@] mb
  STOREROW A[@] mc
ENDLOOP
HALT
"""


def diagnosis_source(width: int,
                     mode: "DiagnosisMode | str" = DiagnosisMode.SINGLE) -> str:
    """Fault-candidate search over a table whose last column carries the
    per-row test response (see ``with_response_column``); ``width`` is the
    augmented table width.  Candidates land in mb.

    The response bit is spread across a whole register with a DEVOR chain,
    so each row applies itself to the right accumulator through plain mask
    logic; no branching, and the program depends only on the table width.
    """
    mode = DiagnosisMode(mode) if isinstance(mode, str) else mode
    single = mode is DiagnosisMode.SINGLE
    broadcast = [f"  DEVOR mb {k} mb" for k in range(1, width + 1)]
    lines = [
        "; fault candidates from the response column appended to the table",
        "SETALL mb",
        "CLRALL ma",
        f"DEVOR ma {width} mb ; selector: lone 1 at the response column",
        "SETALL mc         ; will intersect the failing rows" if single
        else "CLRALL mc         ; will union the failing rows",
        "CLRALL md         ; will union the passing rows",
        "LOOP *",
        "  AND mb A[@] ma  ; isolate the row's response bit",
        *broadcast,
    ]
    if single:
        lines += [
            "  NOT mb          ; all-ones for passing rows",
            "  OR  mb A[@] mb  ; failing row passes itself, passing row all-ones",
            "  AND mc mc mb",
        ]
    else:
        lines += [
            "  AND mb A[@] mb  ; failing row passes itself, passing row zero",
            "  OR  mc mc mb",
        ]
    lines += [
        "ENDLOOP",
        "LOOP *",
        "  AND mb A[@] ma",
        *broadcast,
        "  NOT mb          ; all-ones for passing rows",
        "  AND mb A[@] mb  ; passing row passes itself, failing row zero",
        "  OR  md md mb",
        "ENDLOOP",
        "NOT md",
        "AND mb mc md      ; candidates, response column still set",
        "NOT ma",
        "AND mb mb ma      ; clear the response column from the result",
        "HALT",
    ]
    return "\n".join(lines) + "\n"


def with_response_column(table: AssociativeTable,
                         response: BitVector) -> AssociativeTable:
    """Append the test response as an extra column: row i gains response
    bit i as its new rightmost coordinate."""
    if response.length != table.height:
        raise ValueError(f"response width {response.length} vs table height "
                         f"{table.height}")
    width = table.width + 1
    rows = [BitVector((row.value << 1) | response.bit(i + 1), width)
            for i, row in enumerate(table.rows)]
    cols = None
    if table.col_labels is not None:
        cols = list(table.col_labels) + ["response"]
    return AssociativeTable(rows, table.row_labels, cols)
