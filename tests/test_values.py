"""The immutable value types: construction, equality, hashing, repr,
immutability, copies, the absence of ordering and the checks each one runs
when it is built.

The expected reprs are the ones the classes have printed since they were
first written, so a report or a log that shows a value reads the same."""
import copy
import json
import pickle
import random
from enum import Enum
from fractions import Fraction

import pytest

from helpers import run_python
import veclog
from veclog.assoc import AssociativeTable, parse_table
from veclog.cover import CoverageInstance, RepairInstance, Spare
from veclog.dq import DesignQualityInput, DesignQualityOutput, DomainError
from veclog.lamp import (REGISTERS, GridState, Instruction, Program,
                         SequencerState)
from veclog.metric import ArithQuality, CompactedQuality, QualityVector
from veclog.vlcore import BitVector, EmptyIntersection, TernaryVector


def bv(s: str) -> BitVector:
    return BitVector.from_string(s)


def registers(state: SequencerState) -> list[BitVector]:
    return [getattr(state, name) for name in REGISTERS]


TABLE = AssociativeTable([0b101, 0b011], 3)
REGS = (bv("000"),) * len(REGISTERS)
STATE = SequencerState(TABLE, *REGS)
STATE_REPR = ("SequencerState(memory=AssociativeTable(2x3), "
              "ma=BitVector('000'), mb=BitVector('000'), mc=BitVector('000'), "
              "md=BitVector('000'), steps=0)")

# class, field values, the same values with one field changed, repr
CASES = [
    (BitVector, (5, 3), (5, 4), "BitVector('101')"),
    (TernaryVector, (4, 1, 3), (4, 2, 3), "TernaryVector('10x')"),
    (AssociativeTable, (TABLE.values, 3, ("r1", "r2"), ("a", "b", "c")),
     (TABLE.values, 3, ("r1", "r2"), ("a", "b", "d")),
     "AssociativeTable(2x3)"),
    (CoverageInstance, (TABLE, (Spare("row", 1), None), 1, None),
     (TABLE, (Spare("row", 1), None), 1, 0),
     "CoverageInstance(table=AssociativeTable(2x3), "
     "kinds=(Spare(axis='row', index=1), None), max_spare_rows=1, "
     "max_spare_cols=None)"),
    (EmptyIntersection, (3,), (4,), "EmptyIntersection(empty_count=3)"),
    (ArithQuality, (Fraction(1), Fraction(1, 2), Fraction(1, 4),
                    Fraction(7, 12)),
     (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(2, 3)),
     "ArithQuality(distance=Fraction(1, 1), "
     "query_in_stored=Fraction(1, 2), stored_in_query=Fraction(1, 4), "
     "quality=Fraction(7, 12))"),
    (QualityVector, (bv("110"), bv("010"), bv("000"), bv("110")),
     (bv("110"), bv("010"), bv("100"), bv("110")),
     "QualityVector(mismatch=BitVector('110'), "
     "stored_only=BitVector('010'), query_only=BitVector('000'), "
     "quality=BitVector('110'))"),
    (CompactedQuality, (bv("110"),), (bv("100"),),
     "CompactedQuality(compacted=BitVector('110'))"),
    (Spare, ("row", 3), ("column", 3), "Spare(axis='row', index=3)"),
    (RepairInstance, (2, 3, frozenset({(1, 2)}), 1, 0),
     (2, 3, frozenset({(1, 2)}), 1, 1),
     "RepairInstance(rows=2, cols=3, faults=frozenset({(1, 2)}), "
     "spare_rows=1, spare_cols=0)"),
    (DesignQualityInput, (0.1, 10, 0.5, 1.0, 2.0), (0.1, 10, 0.5, 1.0, 3.0),
     "DesignQualityInput(fault_probability=0.1, undetected_faults=10, "
     "testability=0.5, scan_complexity=1.0, logic_complexity=2.0)"),
    (DesignQualityOutput, (0.5, 0.25, 0.125, 0.5, 0.3),
     (0.5, 0.25, 0.125, 0.5, 0.4),
     "DesignQualityOutput(yield_estimate=0.5, fault_level=0.25, "
     "verification_time=0.125, hardware_redundancy=0.5, quality=0.3)"),
    (Instruction, ("and", "ma", 0, "mb", 0, 4), ("and", "ma", 0, "mb", 0, 5),
     "Instruction(opcode='and', dst='ma', src1=0, src2='mb', imm=0, line=4)"),
    (Program, ("NOT ma\nHALT\n",), ("NOT mb\nHALT\n",),
     r"Program(source='NOT ma\nHALT\n')"),
    (SequencerState, (TABLE, *REGS, 0), (TABLE, *REGS, 1), STATE_REPR),
    (GridState, ((STATE,) * 16,),
     ((STATE,) * 15 + (SequencerState(TABLE, *REGS, steps=1),),),
     "GridState(cells=(" + ", ".join([STATE_REPR] * 16) + "))"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=IDS)
class TestContract:
    def test_positional_and_keyword_construction(self, cls, args, other,
                                                 text):
        fields = cls.__match_args__
        assert len(fields) == len(args)
        value = cls(*args)
        assert value == cls(**dict(zip(fields, args)))
        assert value == cls(*args[:1], **dict(zip(fields[1:], args[1:])))
        assert tuple(getattr(value, f) for f in fields) == args

    def test_bad_calls_raise_type_error(self, cls, args, other, text):
        first = cls.__match_args__[0]
        with pytest.raises(TypeError, match="missing"):
            cls()
        with pytest.raises(TypeError, match="unexpected keyword"):
            cls(*args, bogus=1)
        with pytest.raises(TypeError, match="positional"):
            cls(*args, None)
        with pytest.raises(TypeError, match="multiple values"):
            cls(*args, **{first: args[0]})

    def test_fieldwise_equality_and_hash(self, cls, args, other, text):
        value, same, changed = cls(*args), cls(*args), cls(*other)
        assert value == same and not value != same
        assert value != changed and not value == changed
        assert hash(value) == hash(same)
        assert len({value, same, changed}) == 2

    def test_only_same_class_is_equal(self, cls, args, other, text):
        value = cls(*args)
        for other_cls, other_args, _, _ in CASES:
            if other_cls is not cls:
                assert value != other_cls(*other_args)
        assert value != args
        sub = type("Sub", (cls,), {})
        assert value != sub(*args) and sub(*args) != value

    def test_repr(self, cls, args, other, text):
        assert repr(cls(*args)) == text

    def test_assignment_and_deletion_raise(self, cls, args, other, text):
        value = cls(*args)
        for field in cls.__match_args__:
            with pytest.raises(AttributeError):
                setattr(value, field, args[0])
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == cls(*args)

    def test_copies_and_pickles_are_equal(self, cls, args, other, text):
        value = cls(*args)
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value
            # attributes derived from the fields, as a Program's instructions
            assert getattr(twin, "__dict__", None) == \
                getattr(value, "__dict__", None)


def test_every_exported_class_is_a_value_type():
    # everything veclog exports that is neither an exception nor an Enum;
    # the exports load lazily, so they are read through __all__, not vars()
    exported = (getattr(veclog, name) for name in veclog.__all__)
    classes = {obj for obj in exported if isinstance(obj, type)
               and not issubclass(obj, (Exception, Enum))}
    cases = {case[0]: case for case in CASES}
    # every value class but the one a Program is built from
    assert classes == set(cases) - {Instruction}
    assert len(classes) == 15
    for cls in classes:
        _, args, other, _ = cases[cls]
        value = cls(*args)
        assert tuple(getattr(value, f) for f in cls.__match_args__) == args
        for name in (*cls.__match_args__, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, args[0])
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == cls(*args) and value != cls(*other)
        assert hash(value) == hash(cls(*args))


def test_per_line_values_hold_no_dict():
    """The values made once per input line keep their fields in slots."""
    cases = {case[0]: case[1] for case in CASES}
    for cls in (BitVector, Spare, Instruction):
        value = cls(*cases[cls])
        assert not hasattr(value, "__dict__"), cls.__name__


# veclog's public names before its exports became lazy, by defining module
PUBLIC_NAMES = {
    "assoc": "AssociativeTable DiagnosisMode best_match diagnose "
             "feasible_mask parse_table parse_ternary_rows",
    "cover": "BudgetExceeded CoverageInstance Infeasible NotCovering "
             "RepairInstance Spare TooLarge build_repair_table coverage_of "
             "exact_cover_oracle greedy_cover parse_repair_instance "
             "repair_plan selected_rows",
    "dq": "DesignQualityInput DesignQualityOutput DomainError design_quality",
    "lamp": "AssemblyError GridState Program SequencerState StepLimitExceeded "
            "assemble coverage_search_source diagnosis_source "
            "feasible_search_source quality_source restrict_source run_grid "
            "run_sequencer with_response_column",
    "metric": "ArithQuality Choice CompactedQuality QualityVector "
              "beta_cycle_check better_of compact_quality quality_arith "
              "quality_vector",
    "vlcore": "BitVector EmptyInput EmptyIntersection LengthMismatch "
              "ParseError TernaryVector slc ternary_intersect",
}

# in a fresh interpreter: dir(veclog) before any export is used, the names
# `from veclog import *` binds, and each that is not its module's object
NAMESPACE_PROBE = """
import importlib, json, sys
import veclog
listed = dir(veclog)
star = {}
exec("from veclog import *", star)
wrong = []
for module, names in json.loads(sys.argv[1]).items():
    source = importlib.import_module("veclog." + module)
    wrong += [module] * (star.get(module) is not source)
    wrong += [name for name in names.split()
              if star.get(name, wrong) is not getattr(source, name)]
print(json.dumps({"dir": listed, "star": sorted(star), "wrong": wrong}))
"""


def test_lazy_exports_keep_every_name_and_object():
    names = {*PUBLIC_NAMES, *" ".join(PUBLIC_NAMES.values()).split()}
    assert len(names) == 62
    out = json.loads(run_python(NAMESPACE_PROBE, json.dumps(PUBLIC_NAMES)))
    assert names | {"__version__"} <= set(out["dir"])
    assert set(out["star"]) - {"__builtins__"} == names
    assert out["wrong"] == []


def test_defaults():
    halt = Instruction("halt")
    assert (halt.dst, halt.src1, halt.src2, halt.imm, halt.line) == \
        (None, None, None, None, 0)
    assert Instruction("halt", line=3).line == 3
    state = SequencerState(TABLE, *REGS)
    assert state.steps == 0
    instance = CoverageInstance(TABLE)
    assert instance.kinds == (None, None)
    assert (instance.max_spare_rows, instance.max_spare_cols) == (None, None)
    # sequences are stored as tuples, so equal contents give equal values
    assert CoverageInstance(TABLE, [None, None]) == instance
    table = AssociativeTable(list(TABLE.values), 3, ["r1", "r2"])
    assert table == AssociativeTable(TABLE.values, 3, ("r1", "r2"))
    assert (table.values, table.width, table.row_labels, table.col_labels) \
        == ((0b101, 0b011), 3, ("r1", "r2"), None)
    assert state == SequencerState(TABLE, *REGS, 0)


def test_sequencer_state_zeroes_registers_not_given():
    # a register of another width raises; see test_post_init_checks
    assert SequencerState(TABLE) == SequencerState(TABLE, *REGS)
    assert registers(SequencerState(TABLE, mc=bv("110"))) == \
        [bv("000"), bv("000"), bv("110"), bv("000")]
    with pytest.raises(TypeError, match="unexpected keyword"):
        SequencerState(TABLE, me=bv("000"))  # there is no fifth register


def test_spare_ordering():
    # spares compare for equality only, as every other value type does
    spares = [Spare("row", 2), Spare("column", 9), Spare("row", 1),
              Spare("column", 1)]
    with pytest.raises(TypeError):
        sorted(spares)
    for compare in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(Spare("row", 1), compare)(Spare("row", 2)) \
            is NotImplemented
    with pytest.raises(TypeError):
        Spare("column", 9) < Spare("row", 1)
    with pytest.raises(TypeError):
        Spare("row", 1) < ("row", 2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: BitVector(8, 3), ValueError,
     "value does not fit the stated length"),
    (lambda: BitVector(0, 0), ValueError,
     "vector length must be at least 1, got 0"),
    (lambda: TernaryVector(0, 0, 0), ValueError,
     "vector length must be at least 1, got 0"),
    (lambda: TernaryVector(8, 0, 3), ValueError,
     "coordinate masks do not fit the stated length"),
    (lambda: TernaryVector(0, -1, 3), ValueError,
     "coordinate masks do not fit the stated length"),
    (lambda: TernaryVector(1, 1, 3), ValueError,
     "a coordinate cannot be both 1 and x"),
    (lambda: AssociativeTable([], 3), ValueError,
     "a table needs at least one row"),
    (lambda: AssociativeTable([1, 2], 1), ValueError,
     "row 2 does not fit width 1"),
    (lambda: AssociativeTable(TABLE.values, 3, ["r1"]), ValueError,
     "1 row labels for 2 rows"),
    (lambda: AssociativeTable(TABLE.values, 3, None, ["a", "b", "a"]),
     ValueError, "duplicate column labels"),
    (lambda: CoverageInstance(TABLE, [None]), ValueError,
     "1 row kinds for 2 rows"),
    (lambda: Spare("diagonal", 1), ValueError,
     "axis must be 'row' or 'column', got 'diagonal'"),
    (lambda: Spare(axis="Row", index=1), ValueError,
     "axis must be 'row' or 'column', got 'Row'"),
    (lambda: RepairInstance(0, 3, frozenset(), 1, 1), ValueError,
     "memory dimensions must be at least 1x1"),
    (lambda: RepairInstance(3, 0, frozenset(), 1, 1), ValueError,
     "memory dimensions must be at least 1x1"),
    (lambda: RepairInstance(3, 3, frozenset(), -1, 1), ValueError,
     "spare budgets must be non-negative"),
    (lambda: RepairInstance(3, 3, frozenset(), 1, -1), ValueError,
     "spare budgets must be non-negative"),
    (lambda: RepairInstance(2, 2, frozenset({(3, 1)}), 1, 1), ValueError,
     "fault (3,1) outside 2x2 memory"),
    (lambda: RepairInstance(2, 2, frozenset({(1, 0)}), 1, 1), ValueError,
     "fault (1,0) outside 2x2 memory"),
    (lambda: DesignQualityInput(1.5, 1, 0.5, 1, 1), DomainError,
     "fault probability must lie in [0,1]"),
    (lambda: DesignQualityInput(0.5, -1, 0.5, 1, 1), DomainError,
     "undetected-fault count must be >= 0"),
    (lambda: DesignQualityInput(0.5, 1, -0.1, 1, 1), DomainError,
     "testability must lie in [0,1]"),
    (lambda: DesignQualityInput(0.5, 1, 0.5, -1, 1), DomainError,
     "complexities must be >= 0"),
    (lambda: DesignQualityInput(0.5, 1, 0.5, 0, 0), DomainError,
     "total complexity must be positive"),
    (lambda: SequencerState(AssociativeTable([0b10], 2), BitVector(1, 1),
                            *[bv("00")] * 3), ValueError,
     "register ma has width 1, memory width is 2"),
    (lambda: SequencerState(TABLE, mb=bv("10")), ValueError,
     "register mb has width 2, memory width is 3"),
    (lambda: GridState((STATE,) * 15), ValueError,
     "grid needs 16 cells, got 15"),
    (lambda: GridState(cells=(STATE,) * 17), ValueError,
     "grid needs 16 cells, got 17"),
])
def test_post_init_checks(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# A table holds its rows as ints; ``rows`` is a view built from them.

def int_tables():
    """Seeded (values, width) pairs at word-boundary widths, with the
    all-ones and all-zero rows first and last."""
    rng = random.Random("int-rows")
    for width in (1, 63, 64, 65, 256):
        for height in (1, 2, 64, 65):
            values = [rng.getrandbits(width) for _ in range(height)]
            values[0], values[-1] = (1 << width) - 1, 0
            yield values, width


def test_parsed_table_equals_table_built_from_ints():
    for values, width in int_tables():
        height = len(values)
        rows = [format(v, f"0{width}b") for v in values]
        names = [f"r{i}" for i in range(1, height + 1)]
        cols = [f"c{j}" for j in range(1, width + 1)]
        text = (f"{height} {width}\n" + "\n".join(rows) + "\n#labels\nrows: "
                + " ".join(names) + "\ncols: " + " ".join(cols) + "\n")
        parsed = parse_table(text)
        built = AssociativeTable(values, width, names, cols)
        assert parsed == built and hash(parsed) == hash(built)
        assert parsed.values == tuple(values)
        # the BitVector rows tables held before rows were ints
        assert parsed.rows == tuple(BitVector(v, width) for v in values)
        assert [str(row) for row in parsed.rows] == rows
        for twin in (copy.copy(parsed), copy.deepcopy(parsed),
                     pickle.loads(pickle.dumps(parsed))):
            assert twin == parsed and twin.rows == parsed.rows


@pytest.mark.parametrize("width", [1, 63, 64, 65, 256])
def test_table_names_the_first_row_that_does_not_fit(width):
    for height in (1, 2, 64, 65):
        for bad in sorted({1, height // 2 + 1, height}):
            for value in (1 << width, -1, (1 << width + 1) - 1):
                values = [(1 << width) - 1] * height
                values[bad - 1] = value
                values[-1:] = [value] if bad == height else [0]
                with pytest.raises(ValueError) as exc:
                    AssociativeTable(values, width)
                assert str(exc.value) == f"row {bad} does not fit width {width}"
        AssociativeTable([(1 << width) - 1] * height, width)  # fits


@pytest.mark.parametrize("build, error, message", [
    (lambda: AssociativeTable([0], 0), ValueError,
     "table width must be at least 1, got 0"),
    (lambda: AssociativeTable([0], -1), ValueError,
     "table width must be at least 1, got -1"),
    (lambda: AssociativeTable([0b101, -0b011], 3), ValueError,
     "row 2 does not fit width 3"),
    (lambda: AssociativeTable([0b1000, 0b101], 3), ValueError,
     "row 1 does not fit width 3"),
    (lambda: AssociativeTable([0b101, 0b011], 3, ["r1", "r2", "r3"]),
     ValueError, "3 row labels for 2 rows"),
    (lambda: AssociativeTable([0b101, 0b011], 3, ["r1", "r1"]), ValueError,
     "duplicate row labels"),
    (lambda: AssociativeTable([0b101, 0b011], 3, None, ["a", "b"]),
     ValueError, "2 column labels for 3 columns"),
])
def test_table_checks(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("rows", [[BitVector(5, 3)],
                                  [BitVector(5, 3), BitVector(3, 3)],
                                  [5, BitVector(3, 3)]])
def test_table_rejects_bit_vectors_as_values(rows):
    with pytest.raises(TypeError):
        AssociativeTable(rows, 3)
