"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""
import functools
import os
import random
import time
from fractions import Fraction
from itertools import product

from helpers import rand_bitvector, rand_table, vectorize_column
from veclog.assoc import AssociativeTable, DiagnosisMode, diagnose, feasible_mask
from veclog.cover import (
    CoverageInstance,
    RepairInstance,
    build_repair_table,
    coverage_of,
    exact_cover_oracle,
    greedy_cover,
    repair_plan,
    selected_rows,
)
from veclog.dq import DesignQualityInput, design_quality
from veclog.lamp import (
    SequencerState,
    assemble,
    coverage_search_source,
    diagnosis_source,
    feasible_search_source,
    run_sequencer,
    with_response_column,
)
from veclog.metric import (
    Choice,
    CompactedQuality,
    beta_cycle_check,
    better_of,
    compact_quality,
    quality_arith,
    quality_vector,
)
from veclog.vlcore import BitVector, TernaryVector, slc


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL  {description}")
                raise
            print(f"[criterion {number:2d}] PASS  {description}")
        return wrapper
    return decorate


M12 = BitVector.from_string("110011001100")
A12 = BitVector.from_string("000011110101")
Q12 = BitVector.from_string("110000111001")

MEMORY_FAULTS = frozenset({(2, 2), (2, 5), (2, 8), (4, 3), (5, 5),
                           (5, 8), (7, 2), (8, 5), (9, 3), (9, 7)})


@criterion(1, "worked pair: quality vector has exactly 6 of 12 ones, <1ms")
def test_worked_pair_quality_vector():
    qv = quality_vector(M12, A12)
    assert qv.quality == Q12
    compacted = compact_quality(qv)
    assert compacted.compacted.popcount == 6
    assert compacted.compacted.length == 12
    assert str(compacted) == "(6/12)"
    assert compacted.compacted == BitVector.from_string("111111000000")
    best = min(_timed_run() for _ in range(10))
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"


def _timed_run():
    start = time.perf_counter()
    compact_quality(quality_vector(M12, A12))
    return time.perf_counter() - start


@criterion(2, "compacted comparison (6,12) vs (8,12) selects the first")
def test_compacted_comparison():
    q6 = CompactedQuality(BitVector.from_string("111111000000"))
    q8 = CompactedQuality(BitVector.from_string("111111110000"))
    assert better_of(q6, q8) is Choice.FIRST
    assert better_of(q8, q6) is Choice.SECOND


@criterion(3, "reduction theorem: quality vector equals xor, exhaustive "
              "len<=10 plus 10^4 random len-256 pairs, <10s")
def test_reduction_theorem():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 11):
        vectors = [BitVector(v, n) for v in range(1 << n)]
        for a in vectors:
            xa = a.value
            for b in vectors:
                if quality_vector(a, b).quality.value != xa ^ b.value:
                    raise AssertionError(f"violation at {a} {b}")
                checked += 1
    rng = random.Random(2033)
    for _ in range(10_000):
        a = rand_bitvector(rng, 256)
        b = rand_bitvector(rng, 256)
        assert quality_vector(a, b).quality == a ^ b
        checked += 1
    elapsed = time.perf_counter() - start
    print(f"  reduction checked on {checked} pairs in {elapsed:.2f}s")
    assert elapsed < 10.0


@criterion(4, "exact rational qualities: 5/6, 2/3, and the 1/0 boundaries")
def test_arith_quality_values():
    tv = TernaryVector.from_string
    half = quality_arith(tv("1x"), tv("xx"))
    assert half.distance == 1
    assert half.query_in_stored == Fraction(1, 2)
    assert half.stored_in_query == 1
    assert half.quality == Fraction(5, 6)

    both = quality_arith(tv("xx0"), tv("x1x"))
    assert both.distance == 1
    assert both.query_in_stored == Fraction(1, 2)
    assert both.stored_in_query == Fraction(1, 2)
    assert both.quality == Fraction(2, 3)

    equal = quality_arith(tv("10x"), tv("10x"))
    assert equal.quality == 1

    clash = quality_arith(tv("0"), tv("1"))
    assert clash.quality == 0
    assert clash.distance == 0


@criterion(5, "cycle distance sums: all-zero on 10^3 random cycles")
def test_beta_cycles():
    rng = random.Random(2055)
    for _ in range(1000):
        n = rng.randint(1, 64)
        count = rng.randint(2, 8)
        points = [rand_bitvector(rng, n) for _ in range(count)]
        assert beta_cycle_check(points) == BitVector.zeros(n)


@criterion(6, "13x15 memory module: greedy mask, all three minimum covers, "
              "valid plan, <1s")
def test_memory_repair_instance():
    start = time.perf_counter()
    instance = RepairInstance(13, 15, MEMORY_FAULTS, 2, 5)
    coverage = build_repair_table(instance)
    assert [k.label for k in coverage.kinds] == [
        "C2", "C3", "C5", "C7", "C8", "R2", "R4", "R5", "R7", "R8", "R9"]
    mask = greedy_cover(coverage)
    assert mask == BitVector.from_string("11111000000")
    chosen = [coverage.kinds[k - 1] for k in selected_rows(mask)]
    assert [s.label for s in chosen] == ["C2", "C3", "C5", "C7", "C8"]
    covers = exact_cover_oracle(coverage)
    named = [tuple(coverage.kinds[k - 1].label for k in rows)
             for rows in covers]
    assert named == [
        ("C2", "C3", "C5", "C7", "C8"),
        ("C2", "C3", "C5", "C8", "R9"),
        ("C2", "C5", "C8", "R4", "R9"),
    ]
    assert all(len(c) == 5 for c in named)
    assert [spare for spare, _ in repair_plan(instance, chosen)] == chosen
    elapsed = time.perf_counter() - start
    print(f"  repair instance solved in {elapsed * 1e3:.1f} ms")
    assert elapsed < 1.0


def _columns(rows: list[int], n: int, w: int) -> list[int]:
    """Brute force: each column, 1 to w, read bit by bit down the n rows
    into an n-bit int whose highest bit is row 1."""
    columns = []
    for shift in range(w - 1, -1, -1):
        column = 0
        for i in range(n):
            column = (column << 1) | ((rows[i] >> shift) & 1)
        columns.append(column)
    return columns


def _oracle_candidates(columns: list[int], resp: int) -> int:
    """Column j is a candidate iff it equals the response."""
    out = 0
    for column in columns:
        out = (out << 1) | (column == resp)
    return out


def _check_all_responses(table: AssociativeTable, rows: list[int],
                         responses: list[BitVector]) -> int:
    n, w = table.height, table.width
    columns = _columns(rows, n, w)  # once per table, for every response
    for response in responses:
        got = diagnose(table, response, DiagnosisMode.SINGLE).value
        want = _oracle_candidates(columns, response.value)
        if got != want:
            raise AssertionError(
                f"mismatch: rows={rows} n={n} w={w} resp={response}")
    return len(responses)


@criterion(7, "single-mode diagnosis equals the column-equality oracle "
              "(exhaustive small sizes, dense 5x5 sweep, random 12x12)")
def test_diagnosis_matches_oracle():
    checked = 0
    # exhaustive wherever the full (table, response) space stays <= 2^20
    for n in range(1, 6):
        for w in range(1, 6):
            if n * (w + 1) > 20:
                continue
            responses = [BitVector(r, n) for r in range(1 << n)]
            for combo in product(range(1 << w), repeat=n):
                table = AssociativeTable(combo, w)
                checked += _check_all_responses(table, list(combo), responses)
    # the remaining sizes up to 5x5: all responses against a dense,
    # deterministic table sample plus structured edge tables; set
    # VECLOG_DIAG_FULL=1 for the complete (hours-long) sweep
    full = os.environ.get("VECLOG_DIAG_FULL") == "1"
    rng = random.Random(2077)
    for n, w in ((4, 5), (5, 4), (5, 5)):
        responses = [BitVector(r, n) for r in range(1 << n)]
        if full:
            tables = product(range(1 << w), repeat=n)
        else:
            corner_rows = [0, (1 << w) - 1, 1, 1 << (w - 1)]
            structured = list(product(corner_rows, repeat=n))
            sampled = {tuple(rng.randrange(1 << w) for _ in range(n))
                       for _ in range(6000)}
            tables = structured + sorted(sampled)
        for combo in tables:
            table = AssociativeTable(combo, w)
            checked += _check_all_responses(table, list(combo), responses)
    # 10^3 random 12x12 tables, mixed random and planted responses
    for _ in range(1000):
        table = rand_table(rng, 12, 12)
        columns = _columns(table.values, 12, 12)
        planted = vectorize_column(table, rng.randint(1, 12))
        for response in (rand_bitvector(rng, 12), planted,
                         BitVector.zeros(12)):
            got = diagnose(table, response,
                           DiagnosisMode.SINGLE).value
            assert got == _oracle_candidates(columns, response.value)
            checked += 1
    print(f"  diagnosis agreed with the oracle on {checked} "
          f"(table, response) pairs{' [full sweep]' if full else ''}")


@criterion(8, "greedy soundness on 10^3 random coverable instances, "
              "ratio reported")
def test_greedy_against_oracle():
    rng = random.Random(2088)
    ratios = []
    for _ in range(1000):
        n = rng.randint(2, 16)
        w = rng.randint(3, 8)
        rows = [rng.getrandbits(w) & rng.getrandbits(w) for _ in range(n)]
        # patch uncovered columns into random rows so a cover exists
        union = 0
        for value in rows:
            union |= value
        for j in range(w):
            bit = 1 << j
            if not union & bit:
                rows[rng.randrange(n)] |= bit
                union |= bit
        table = AssociativeTable(rows, w)
        instance = CoverageInstance(table)
        taken = greedy_cover(instance)
        assert coverage_of(instance, taken) == BitVector.ones(w)
        greedy_size = len(selected_rows(taken))
        optimum = len(exact_cover_oracle(instance)[0])
        assert greedy_size >= optimum
        ratios.append(greedy_size / optimum)
    mean = sum(ratios) / len(ratios)
    print(f"  mean greedy/optimal ratio over {len(ratios)} instances: "
          f"{mean:.4f} (worst {max(ratios):.3f})")


@criterion(9, "shipped microprograms reproduce the library on 100 random "
              "instances each, plus the memory-module cover run")
def test_microprogram_equivalence():
    rng = random.Random(2099)

    program = assemble(feasible_search_source())
    for _ in range(100):
        w = rng.randint(3, 14)
        n = rng.randint(1, w)
        table = rand_table(rng, n, w)
        query = rand_bitvector(rng, w)
        out = run_sequencer(SequencerState(table, mb=query), program)
        mask = feasible_mask(table, query)
        assert out.ma == BitVector(mask.value << (w - n), w)

    for mode in (DiagnosisMode.SINGLE, DiagnosisMode.MULTIPLE):
        for _ in range(100):
            n = rng.randint(1, 10)
            w = rng.randint(2, 12)
            table = rand_table(rng, n, w)
            response = rand_bitvector(rng, n)
            augmented = with_response_column(table, response)
            program = assemble(diagnosis_source(augmented.width, mode))
            out = run_sequencer(SequencerState(augmented), program)
            lib = diagnose(table, response, mode)
            assert out.mb == BitVector(lib.value << 1, w + 1)

    program = assemble(coverage_search_source())
    for _ in range(100):
        w = rng.randint(3, 14)
        n = rng.randint(1, w)
        table = rand_table(rng, n, w)
        out = run_sequencer(SequencerState(table), program)
        taken = greedy_cover(CoverageInstance(table))
        assert out.ma == BitVector(taken.value << (w - n), w)

    # the memory-module coverage table, widened so the row mask fits
    coverage = build_repair_table(RepairInstance(13, 15, MEMORY_FAULTS, 2, 5))
    wide = coverage.table.widened(11)
    out = run_sequencer(SequencerState(wide),
                        assemble(coverage_search_source()))
    assert out.ma == BitVector.from_string("11111000000")
    assert out.ma == greedy_cover(coverage)


@criterion(10, "slc invariants exhaustive for len<=12")
def test_slc_invariants():
    for n in range(1, 13):
        for value in range(1 << n):
            v = BitVector(value, n)
            out = slc(v)
            assert out.popcount == v.popcount
            assert slc(out) == out
            assert "01" not in str(out)


@criterion(11, "design-quality formulas: boundary identities and the "
               "fault-level consistency over 10^4 random inputs")
def test_design_quality_formulas():
    rng = random.Random(2111)
    for _ in range(200):
        inp = DesignQualityInput(rng.uniform(0, 1), rng.randint(0, 40), 1.0,
                                 rng.uniform(0, 10), rng.uniform(0.1, 10))
        out = design_quality(inp)
        assert out.fault_level == 0.0
        assert out.verification_time == 0.0
    for _ in range(200):
        inp = DesignQualityInput(0.0, rng.randint(0, 40), rng.uniform(0, 1),
                                 rng.uniform(0, 10), rng.uniform(0.1, 10))
        assert design_quality(inp).yield_estimate == 1.0
    for _ in range(10_000):
        inp = DesignQualityInput(rng.uniform(0, 1), rng.randint(0, 40),
                                 rng.uniform(0, 1), rng.uniform(0, 10),
                                 rng.uniform(1e-6, 10))
        out = design_quality(inp)
        expected = 1.0 - out.yield_estimate ** (1.0 - inp.testability)
        assert abs(out.fault_level - expected) <= 1e-12
