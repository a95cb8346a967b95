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

from functools import lru_cache
from itertools import groupby, product
from typing import Optional, Sequence, Union

from veclog.assoc import AssociativeTable, DiagnosisMode
from veclog.vlcore import BitVector, EmptyInput, decimal, value_type

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


@value_type
class Instruction:
    __slots__ = ("opcode", "dst", "src1", "src2", "imm", "line")
    opcode: str  # the operation's _OPS key
    dst: Union[str, int, None]  # a register's name, or a row (0 = A[@])
    src1: Union[str, int, None]
    src2: Union[str, int, None]
    imm: Optional[int]  # LOOP count (0 = *), DEVOR index (0 = @)
    line: int

    def __init__(self, opcode, dst=None, src1=None, src2=None, imm=None,
                 line=0):  # value_type's generic one costs twice as much
        _set_opcode(self, opcode)  # slot writes, as assignment raises
        _set_dst(self, dst)
        _set_src1(self, src1)
        _set_src2(self, src2)
        _set_imm(self, imm)
        _set_line(self, line)


_set_opcode, _set_dst, _set_src1, _set_src2, _set_imm, _set_line = (
    getattr(Instruction, name).__set__ for name in Instruction.__slots__)


@value_type
class Program:
    """A program is its text, exactly a ``str`` (else TypeError);
    ``instructions`` and the loop plan ``loops`` are made of it once, here."""

    source: str

    def __post_init__(self):
        if type(self.source) is not str:
            raise TypeError(f"program source must be a str, "
                            f"got {type(self.source).__name__}")
        self.__dict__["instructions"] = code = _assemble(self.source)
        self.__dict__["loops"] = _loops(code)


# ---------------------------------------------------------------------------
# Operation table, by lower-case name.  A shape has one letter per operand:
# r register, s register or row, R row, k coordinate (1.. or @), n count
# (1.. or *); a trailing ? makes the last operand optional, repeating the
# first.  Registers and rows fill dst, src1 and src2 in order, k and n fill
# imm; a row, k and n hold 0 for @ and *.  The statement is the
# meaning in Python over int registers, the row list A and the all-ones word
# `ones`, with the loop row `at`: {d}, {a} and {b} are dst, src1 and src2,
# {k} a DEVOR's coordinate bits.  No statement checks a fault; see _walk.

_OPS = {  # name: (shape, statement)
    "and": ("rsr", "{d} = {a} & {b}"),
    "or": ("rsr", "{d} = {a} | {b}"),
    "xor": ("rsr", "{d} = {a} ^ {b}"),
    "not": ("rs?", "{d} = {a} ^ ones"),
    "slc": ("rs?", "{d} = ones ^ ones >> {a}.bit_count()"),
    "nop": ("rs?", "{d} = {a}"),
    "loadrow": ("rR", "{d} = {a}"),
    "storerow": ("Rr", "{d} = {a}; stored = True"),
    "devor": ("rks", "{d} = {d} | {k} if {a} else {d} & ~{k}"),
    "setall": ("r", "{d} = ones"),
    "clrall": ("r", "{d} = 0"),
    "loop": ("n", "at = 1"),  # a body with a HALT; others are a for
    "endloop": ("", ""),  # ends a for; _walk faults it with no loop
    "halt": ("", ""),  # emit_source stops at it and returns
}


# ---------------------------------------------------------------------------
# Assembler

# operation name: (its _OPS key, its shape's letters, whether the last is
# optional); the key is held once however many lines name the operation
_SHAPES = {op: (op, shape.rstrip("?"), shape.endswith("?"))
           for op, (shape, _) in _OPS.items()}
# each register's name, held once however many operands name it
_REGISTER = {name: name for name in REGISTERS}


def _row(token: str, line: int, in_loop: bool) -> Optional[int]:
    """The row that ``token`` names as ``A[i]``, ``a[i]`` or ``A[@]`` (0),
    or None when it has none of these forms."""
    if token[:2] not in ("A[", "a[") or token[-1:] != "]":
        return None
    body = token[2:-1]
    if body == "@":
        if not in_loop:
            raise AssemblyError("A[@] is only meaningful inside a LOOP", line)
        return 0
    if not body.isdecimal():
        return None
    index = decimal(body, line, AssemblyError)
    if index < 1:
        raise AssemblyError("row numbers start at 1", line)
    return index


def _number(token: str, line: int, in_loop: bool, kind: str) -> int:
    """A positive integer, or 0 for the wildcard of shape letter ``kind``
    (k: @, which needs a LOOP; n: *)."""
    wildcard, what = ("@", "DEVOR index") if kind == "k" else \
        ("*", "LOOP count")
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


def assemble(source: str) -> Program:
    """Assemble program text; raises on the first malformed line."""
    return Program(source)


def _assemble(source: str) -> tuple[Instruction, ...]:
    if not source.strip():
        raise EmptyInput("empty program source")
    instructions: list[Instruction] = []
    labels: set[str] = set()
    loop_line: Optional[int] = None  # line of the open LOOP
    for lineno, raw in enumerate(source.splitlines(), start=1):
        tokens = raw.split(";", 1)[0].split()
        while tokens and tokens[0].endswith(":"):
            name = tokens[0][:-1]
            if not (name.isascii() and name.isidentifier()):
                raise AssemblyError(f"bad label {tokens[0]!r}", lineno)
            if name in labels:
                raise AssemblyError(f"duplicate label {name!r}", lineno)
            labels.add(name)
            tokens = tokens[1:]
        if not tokens:
            continue
        try:
            opcode, kinds, optional = _SHAPES[tokens[0].lower()]
        except KeyError:
            raise AssemblyError(f"unknown operation {tokens[0]!r}",
                                lineno) from None
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
            if kind in "kn":
                imm = _number(token, lineno, in_loop, kind)
            elif kind != "r" and (row := _row(token, lineno,
                                              in_loop)) is not None:
                fields.append(row)
            elif kind != "R" and (reg := _REGISTER.get(token.lower())):
                fields.append(reg)
            elif kind != "R":
                raise UnknownRegister(f"unknown register {token!r}", lineno)
            else:
                raise AssemblyError(f"expected a row reference like A[1], "
                                    f"got {token!r}", lineno)
        fields += [None] * (3 - len(fields))  # dst, src1, src2
        instructions.append(Instruction(opcode, *fields, imm, lineno))
    if loop_line is not None:
        raise AssemblyError("LOOP never closed", loop_line)
    return tuple(instructions)


# ---------------------------------------------------------------------------
# Execution

@value_type
class SequencerState:
    """One sequencer: data memory, the four registers, and run bookkeeping.

    A register not given starts as zeros of the memory's width; one of
    another width raises ValueError.  ``steps`` counts instructions executed
    by the run that produced the state; new states carry 0.
    """

    memory: AssociativeTable
    ma: Optional[BitVector] = None
    mb: Optional[BitVector] = None
    mc: Optional[BitVector] = None
    md: Optional[BitVector] = None
    pc: int = 0
    steps: int = 0

    def __post_init__(self):
        width = self.memory.width
        for name in REGISTERS:
            value = self.__dict__[name]
            if value is None:
                self.__dict__[name] = BitVector.zeros(width)
            elif value.length != width:
                raise ValueError(f"register {name} has width {value.length}, "
                                 f"memory width is {width}")


def run_sequencer(state: SequencerState, program: Program,
                  max_steps: int = DEFAULT_MAX_STEPS) -> SequencerState:
    """Execute until HALT or the end of the program; the input state is
    never mutated.  ``_walk`` settles the end pc and the steps, or raises
    the run's first fault, before any statement runs; then the program runs
    as the function ``emit_source`` writes for the state's pc, compiled
    once per distinct program and pc."""
    memory, width = state.memory, state.memory.width
    rows = list(memory.values)
    pc, steps = _walk(program, state.pc, len(rows), width, max_steps)
    stored, *regs = _compiled(program, state.pc)(
        rows, width, state.ma.value, state.mb.value, state.mc.value,
        state.md.value)
    if stored:
        memory = AssociativeTable(rows, width, memory.row_labels,
                                  memory.col_labels)
    return SequencerState(memory, *(BitVector(v, width) for v in regs),
                          pc, steps)


@lru_cache(maxsize=32)  # a grid runs at most 16 distinct programs
def _compiled(program: Program, pc: int):
    bytecode = compile(emit_source(program, pc), "<lamp program>", "exec")
    exec(bytecode, globals(), scope := {})  # its globals are this module's
    return scope["run"]


def _walk(program: Program, pc: int, n: int, width: int,
          limit: int) -> tuple[int, int]:
    """The end pc and the steps of a run of ``program`` from ``pc`` on
    ``n`` rows of ``width``, or the first fault it meets.  Each instruction
    is checked in turn for the step limit, each row or coordinate it reads,
    and ENDLOOP with no loop running.  No check reads a register or a row,
    so the walk needs neither.  A loop in ``program.loops`` is settled from
    its plan; only the iteration that faults, if one does, is walked."""
    code, loops = program.instructions, program.loops
    pc, steps, at = max(pc, 0), 0, 0  # at: the loop row, 0: no loop
    while pc < len(code):
        if steps >= limit:
            raise StepLimitExceeded(f"exceeded {limit} steps")
        ins = code[pc]
        for noun, k in _reads(ins):
            k, bound = k or at, n if noun == "row" else width
            if not k:
                raise SimulationError(f"@ with no LOOP running "
                                      f"(line {ins.line})")
            if k > bound:  # the assembler keeps a constant k at 1 or more
                error = RowOutOfRange if noun == "row" else BitOutOfRange
                raise error(f"{noun} {k} out of 1..{bound} (line {ins.line})")
        if ins.opcode == "endloop":  # a walked loop faults or halts before it
            raise SimulationError(f"ENDLOOP with no LOOP running "
                                  f"(line {ins.line})")
        steps += 1
        if ins.opcode == "halt":
            return pc + 1, steps
        if ins.opcode == "loop":
            at = 1
            if pc in loops:
                end, row, row_at, coordinate, coordinate_at = loops[pc]
                count, size = ins.imm or n, end - pc
                last = min(count, (limit - steps) // size,
                           n if row_at else count,
                           width if coordinate_at else count) \
                    if row <= n and coordinate <= width else 0
                steps += size * last
                at = last + 1  # the iteration that faults, if one does
                if last == count:  # none does: go on past the ENDLOOP
                    pc = end
        pc += 1
    return pc, steps


def _loops(code: Sequence[Instruction]) -> dict[int, tuple]:
    """The plan of each loop whose body holds no HALT, by its LOOP's pc: its
    ENDLOOP's pc, then for rows and for coordinates the highest constant
    the body reads (0 for none) and whether it reads @."""
    marks = [pc for pc, ins in enumerate(code)
             if ins.opcode in ("loop", "endloop")]
    plan = {}
    for loop, end in zip(marks[::2], marks[1::2]):
        if all(ins.opcode != "halt" for ins in code[loop:end]):
            reads = [r for ins in code[loop + 1:end] for r in _reads(ins)]
            plan[loop] = (end,)
            for noun in ("row", "coordinate"):
                ks = [k for kind, k in reads if kind == noun]
                plan[loop] += (max(ks, default=0), 0 in ks)
    return plan


def _reads(ins: Instruction) -> list[tuple[str, int]]:
    """(noun, number, or 0 for @) of each row or coordinate ``ins`` reads,
    in order."""
    reads = [("coordinate", ins.imm)] if ins.opcode == "devor" else []
    for op in (ins.dst, ins.src1, ins.src2):
        if op.__class__ is int:
            reads.append(("row", op))
    return reads


def emit_source(program: Program, pc: int = 0) -> str:
    """The source of ``run(A, width, ma, mb, mc, md)``, which runs
    ``program`` from instruction ``pc`` up to its first HALT on int rows and
    registers and returns whether a STOREROW ran and the registers.  Each
    instruction is written once, as its ``_OPS`` statement; a loop whose
    body holds no HALT is a ``for`` over its rows, with ``_runs`` folded.
    It checks nothing: ``run_sequencer`` calls it only for a run that
    ``_walk`` has found to end without a fault."""
    code, lines = program.instructions, []
    loops, pc = program.loops, max(pc, 0)
    while pc < len(code) and code[pc].opcode != "halt":
        if pc in loops:
            end = loops[pc][0]
            body = [_statement(run) for run in _runs(code[pc + 1:end])]
            lines += [f"for at in range(1, {code[pc].imm or 'len(A)'} + 1):",
                      *_indent(body or ["pass"])]
            pc = end + 1
        else:
            lines.append(_statement([code[pc]]))
            pc += 1
    return "\n".join(["def run(A, width, ma, mb, mc, md):",
                      "    ones, stored = (1 << width) - 1, False",
                      *_indent(lines),
                      "    return stored, ma, mb, mc, md"]) + "\n"


def _indent(lines: Sequence[str]) -> list[str]:
    return ["    " + line for line in lines if line]


def _runs(code: Sequence[Instruction]) -> list[list[Instruction]]:
    """The instructions, with each run of DEVORs with one d and s and
    constant k as one list."""
    return [list(run) for _, run in groupby(code, lambda ins: (
        (ins.dst, ins.src1) if ins.imm and ins.opcode == "devor"
        else object()))]


def _statement(run: Sequence[Instruction]) -> str:
    """The ``_OPS`` statement of ``run[0]``; a DEVOR run sets each of its
    coordinates."""
    def operand(op) -> str:
        if op.__class__ is int:
            return f"A[{op - 1}]" if op else "A[at - 1]"
        return op

    ins, mask = run[0], f"(1 << width - {run[0].imm or 'at'})"
    if len(run) > 1:
        top = max(i.imm for i in run)
        bits = sum(1 << top - i for i in {i.imm for i in run})
        mask = f"({bits:#x} << width - {top})"
    return _OPS[ins.opcode][1].format(
        d=operand(ins.dst), a=operand(ins.src1), b=operand(ins.src2), k=mask)


GRID_SIDE = 4
GRID_CELLS = GRID_SIDE * GRID_SIDE
# each cell's 1-based (row, column), in the row-major order of GridState
GRID_POSITIONS = tuple(product(range(1, GRID_SIDE + 1), repeat=2))


class GridCellError(SimulationError):
    """A cell's program failed; carries the 1-based grid coordinates, and
    the fault as ``__cause__``."""

    def __init__(self, row: int, col: int, cause: Exception):
        self.row = row
        self.col = col
        super().__init__(f"cell ({row},{col}): {cause}")


@value_type
class GridState:
    """4x4 grid of independent sequencers, stored row-major."""

    cells: tuple[SequencerState, ...]

    def __post_init__(self):
        if len(self.cells) != GRID_CELLS:
            raise ValueError(f"grid needs {GRID_CELLS} cells, "
                             f"got {len(self.cells)}")


def run_grid(grid: GridState, programs: Sequence[Program],
             max_steps: int = DEFAULT_MAX_STEPS) -> GridState:
    """Run one program per cell; cells share nothing, so the result equals
    the tuple of independent sequencer runs."""
    if len(programs) != GRID_CELLS:
        raise ValueError(f"need {GRID_CELLS} programs, got {len(programs)}")
    cells = []
    for (row, col), cell, program in zip(GRID_POSITIONS, grid.cells,
                                         programs):
        try:
            cells.append(run_sequencer(cell, program, max_steps))
        except Exception as exc:
            raise GridCellError(row, col, exc) from exc
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
    coordinate i is 0 when row i contains the query, 1 when it contradicts.
    Needs height <= width, else BitOutOfRange; see AssociativeTable.widened."""
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
    columns covered so far.  Needs height <= width, else BitOutOfRange; see
    AssociativeTable.widened."""
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
    single = DiagnosisMode(mode) is DiagnosisMode.SINGLE
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
    values = [row << 1 | int(flag)
              for flag, row in zip(str(response), table.values)]
    cols = None if table.col_labels is None \
        else (*table.col_labels, "response")
    return AssociativeTable(values, table.width + 1, table.row_labels, cols)
