"""The immutable value types: construction, equality, hashing, repr,
immutability, copies, the absence of ordering and the checks each one runs
when it is built.

The expected reprs are the ones the classes have printed since they were
first written, so a report or a log that shows a value reads the same."""
import copy
import json
import pickle
from enum import Enum
from fractions import Fraction

import pytest

from helpers import run_python
import veclog
from veclog.assoc import AssociativeTable
from veclog.cover import CoverageInstance, RepairInstance, Spare
from veclog.dq import DesignQualityInput, DesignQualityOutput, DomainError
from veclog.lamp import (REGISTERS, GridState, Instruction, Opcode, Program,
                         RowRef, SequencerState)
from veclog.metric import (ArithQuality, CompactedQuality, CountQuality,
                           QualityVector)
from veclog.vlcore import (BitVector, EmptyIntersection, LengthMismatch,
                           TernaryVector)


def bv(s: str) -> BitVector:
    return BitVector.from_string(s)


def registers(state: SequencerState) -> list[BitVector]:
    return [getattr(state, name) for name in REGISTERS]


TABLE = AssociativeTable([bv("101"), bv("011")])
REGS = (bv("000"),) * len(REGISTERS)
STATE = SequencerState(TABLE, *REGS)
STATE_REPR = ("SequencerState(memory=AssociativeTable(2x3), "
              "ma=BitVector('000'), mb=BitVector('000'), mc=BitVector('000'), "
              "md=BitVector('000'), pc=0, steps=0)")

# class, field values, the same values with one field changed, repr
CASES = [
    (BitVector, (5, 3), (5, 4), "BitVector('101')"),
    (TernaryVector, (4, 1, 3), (4, 2, 3), "TernaryVector('10x')"),
    (AssociativeTable, (TABLE.rows, ("r1", "r2"), ("a", "b", "c")),
     (TABLE.rows, ("r1", "r2"), ("a", "b", "d")), "AssociativeTable(2x3)"),
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
    (CountQuality, (2, 1, 0, 3), (2, 1, 1, 3),
     "CountQuality(mismatches=2, stored_only=1, query_only=0, total=3)"),
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
    (RowRef, (2,), (None,), "RowRef(index=2)"),
    (Instruction, (Opcode.AND, "ma", RowRef(None), "mb", None, 4),
     (Opcode.AND, "ma", RowRef(None), "mb", None, 5),
     "Instruction(opcode=<Opcode.AND: 'and'>, dst='ma', "
     "src1=RowRef(index=None), src2='mb', imm=None, line=4)"),
    (Program, ("NOT ma\nHALT\n",), ("NOT mb\nHALT\n",),
     r"Program(source='NOT ma\nHALT\n')"),
    (SequencerState, (TABLE, *REGS, 0, 0), (TABLE, *REGS, 1, 0), STATE_REPR),
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
    # every value class but the two a Program is built from
    assert classes == set(cases) - {RowRef, Instruction}
    assert len(classes) == 16
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


# veclog's public names before its exports became lazy, by defining module
PUBLIC_NAMES = {
    "assoc": "AssociativeTable DiagnosisMode best_match diagnose "
             "feasible_mask parse_table parse_ternary_rows restrict",
    "cover": "BudgetExceeded CoverageInstance DimensionMismatch Infeasible "
             "NotCovering RepairInstance Spare TooLarge "
             "build_repair_table coverage_of exact_cover_oracle greedy_cover "
             "parse_repair_instance repair_plan run_test selected_rows",
    "dq": "DesignQualityInput DesignQualityOutput DomainError design_quality",
    "lamp": "AssemblyError GridState Program SequencerState StepLimitExceeded "
            "assemble coverage_search_source diagnosis_source "
            "feasible_search_source quality_source restrict_source run_grid "
            "run_sequencer with_response_column",
    "metric": "ArithQuality Choice CompactedQuality CountQuality QualityVector "
              "beta_cycle_check better_of compact_quality quality_arith "
              "quality_counts quality_vector",
    "vlcore": "BitVector EmptyInput EmptyIntersection InteractionType "
              "LengthMismatch ParseError TernaryVector classify_interaction "
              "devectorize slc ternary_intersect vectorize",
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
    assert len(names) == 71
    out = json.loads(run_python(NAMESPACE_PROBE, json.dumps(PUBLIC_NAMES)))
    assert names | {"__version__"} <= set(out["dir"])
    assert set(out["star"]) - {"__builtins__"} == names
    assert out["wrong"] == []


def test_defaults():
    halt = Instruction(Opcode.HALT)
    assert (halt.dst, halt.src1, halt.src2, halt.imm, halt.line) == \
        (None, None, None, None, 0)
    assert Instruction(Opcode.HALT, line=3).line == 3
    state = SequencerState(TABLE, *REGS)
    assert (state.pc, state.steps) == (0, 0)
    instance = CoverageInstance(TABLE)
    assert instance.kinds == (None, None)
    assert (instance.max_spare_rows, instance.max_spare_cols) == (None, None)
    # sequences are stored as tuples, so equal contents give equal values
    assert CoverageInstance(TABLE, [None, None]) == instance
    table = AssociativeTable(list(TABLE.rows), ["r1", "r2"])
    assert table == AssociativeTable(TABLE.rows, ("r1", "r2"))
    assert (table.rows, table.row_labels, table.col_labels) == \
        (TABLE.rows, ("r1", "r2"), None)
    assert state == SequencerState(TABLE, *REGS, 0, 0)


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
    with pytest.raises(TypeError):
        RowRef(1) < RowRef(2)


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
    (lambda: AssociativeTable([]), ValueError,
     "a table needs at least one row"),
    (lambda: AssociativeTable([BitVector(1, 1), BitVector(1, 2)]),
     LengthMismatch, "row 2 has width 2, expected 1"),
    (lambda: AssociativeTable(TABLE.rows, ["r1"]), ValueError,
     "1 row labels for 2 rows"),
    (lambda: AssociativeTable(TABLE.rows, None, ["a", "b", "a"]), ValueError,
     "duplicate column labels"),
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
    (lambda: SequencerState(AssociativeTable([bv("10")]), BitVector(1, 1),
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
