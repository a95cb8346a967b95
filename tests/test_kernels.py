"""Differential tests: each int-native table kernel against the vector-logic
reference formulation it replaces and against the kernel as it read tables
of BitVector rows, at word-boundary widths and heights and on tables taller
than 2**16 rows."""
import random

import pytest

from helpers import (bit, devectorize, outcome, rand_bitvector, rand_table,
                     reference_cover_oracle, vectorize)
from veclog.assoc import (
    AssociativeTable,
    DiagnosisMode,
    best_match,
    diagnose,
    feasible_mask,
)
from veclog.cover import (
    CoverageInstance,
    RepairInstance,
    Spare,
    build_repair_table,
    coverage_of,
    exact_cover_oracle,
    greedy_cover,
)
from veclog.lamp import with_response_column
from veclog.metric import Choice, better_of, compact_quality, quality_vector
from veclog.vlcore import BitVector

WIDTHS = (1, 63, 64, 65, 256)


# ---------------------------------------------------------------------------
# Reference formulations: vector operations on BitVector values only.

def ref_best_match(query, table):
    best_rows, best = [], None
    for number, row in enumerate(table.rows, start=1):
        cq = compact_quality(quality_vector(query, row))
        if best is None:
            best, best_rows = cq, [number]
        elif better_of(cq, best) is Choice.FIRST:
            if better_of(best, cq) is Choice.FIRST:
                best_rows.append(number)
            else:
                best, best_rows = cq, [number]
    return best_rows, best


def ref_feasible_mask(table, query):
    return vectorize(devectorize((query & row) ^ query) for row in table.rows)


def ref_diagnose(table, response, mode):
    width = table.width
    single = mode is DiagnosisMode.SINGLE
    hits = BitVector.ones(width) if single else BitVector.zeros(width)
    misses = BitVector.zeros(width)
    for i, row in enumerate(table.rows):
        if bit(response, i + 1):
            hits = hits & row if single else hits | row
        else:
            misses = misses | row
    candidates = hits & ~misses
    return candidates, devectorize(candidates) == 1


def ref_greedy_cover(instance):
    covered = BitVector.zeros(instance.table.width)
    taken = []
    for row in instance.table.rows:
        adds = devectorize((covered | row) & ~covered)
        taken.append(adds)
        if adds:
            covered = covered | row
    return vectorize(taken)


def ref_coverage_of(instance, taken):
    covered = BitVector.zeros(instance.table.width)
    for k, row in enumerate(instance.table.rows, start=1):
        if bit(taken, k):
            covered = covered | row
    return covered


def ref_default_spares(instance):
    faults = sorted(instance.faults)
    spares = [Spare("column", c) for c in sorted({c for _, c in faults})]
    return spares + [Spare("row", r) for r in sorted({r for r, _ in faults})]


def ref_repair_rows(instance, spares):
    faults = sorted(instance.faults)
    rows = []
    for spare in spares:
        if spare.axis == "column":
            bits = [1 if c == spare.index else 0 for _, c in faults]
        else:
            bits = [1 if r == spare.index else 0 for r, _ in faults]
        rows.append(vectorize(bits))
    return rows


# ---------------------------------------------------------------------------
# The kernels as they were when a table held its rows as BitVectors: each
# walks ``table.rows`` and unwraps every row.

def bv_feasible_mask(table, query):
    q = query.value
    flags = ["0" if q & row.value == q else "1" for row in table.rows]
    return BitVector(int("".join(flags), 2), table.height)


def bv_diagnose(table, response, mode):
    single = mode is DiagnosisMode.SINGLE
    hits = (1 << table.width) - 1 if single else 0
    misses = 0
    for flag, row in zip(str(response), table.rows):
        if flag == "1":
            hits = hits & row.value if single else hits | row.value
        else:
            misses |= row.value
    return BitVector(hits & ~misses, table.width)


def bv_best_match(query, table):
    q = query.value
    ones = [(q ^ row.value).bit_count() for row in table.rows]
    least = min(ones)
    best_rows = [k for k, n in enumerate(ones, start=1) if n == least]
    winner = table.rows[best_rows[0] - 1]
    return best_rows, compact_quality(quality_vector(query, winner))


def bv_greedy_cover(instance):
    covered = 0
    taken = []
    for row in instance.table.rows:
        gain = row.value & ~covered
        taken.append("1" if gain else "0")
        covered |= gain
    return BitVector(int("".join(taken), 2), len(taken))


def bv_coverage_of(instance, taken):
    covered = 0
    for flag, row in zip(str(taken), instance.table.rows):
        if flag == "1":
            covered |= row.value
    return BitVector(covered, instance.table.width)


def bv_widened(table, width):
    pad = width - table.width
    return tuple(BitVector(row.value << pad, width) for row in table.rows)


def bv_with_response_column(table, response):
    width = table.width + 1
    return tuple(BitVector((row.value << 1) | int(flag), width)
                 for flag, row in zip(str(response), table.rows))


# ---------------------------------------------------------------------------

def tables(seed, width):
    """Random tables of the width, one with repeated rows so that best-match
    ties occur, and the all-zero and all-one extremes."""
    rng = random.Random(f"{seed}/{width}")
    for height in (1, 2, 7, 40, 64, 65):
        yield rng, rand_table(rng, height, width)
    pool = [rng.getrandbits(width) for _ in range(3)]
    yield rng, AssociativeTable([rng.choice(pool) for _ in range(30)], width)
    yield rng, AssociativeTable([0, (1 << width) - 1] * 3, width)


def queries(rng, table):
    """A stored row, a subset of one, a random word and the extremes."""
    width = table.width
    row = rng.choice(table.rows)
    return (row, row & rand_bitvector(rng, width), rand_bitvector(rng, width),
            BitVector.zeros(width), BitVector.ones(width))


@pytest.mark.parametrize("width", WIDTHS)
def test_best_match(width):
    ties = 0
    for rng, table in tables(1, width):
        for query in queries(rng, table):
            got = best_match(query, table)
            assert got == ref_best_match(query, table)
            ties += len(got[0]) > 1
    assert ties  # the tie order was exercised


@pytest.mark.parametrize("width", WIDTHS)
def test_feasible_mask(width):
    for rng, table in tables(2, width):
        for query in queries(rng, table):
            assert feasible_mask(table, query) == \
                ref_feasible_mask(table, query)


def test_feasible_mask_taller_than_two_to_the_sixteen():
    rng = random.Random(3)
    table = rand_table(rng, (1 << 16) + 1, 8)
    query = table.rows[-1] & table.rows[0]
    got = feasible_mask(table, query)
    assert got.length == table.height
    assert got == ref_feasible_mask(table, query)


@pytest.mark.parametrize("mode", list(DiagnosisMode))
@pytest.mark.parametrize("width", WIDTHS)
def test_diagnose(width, mode):
    for rng, table in tables(4, width):
        height = table.height
        for response in (rand_bitvector(rng, height), BitVector.zeros(height),
                         BitVector.ones(height)):
            result = diagnose(table, response, mode)
            assert (result, result.value != 0) == \
                ref_diagnose(table, response, mode)


@pytest.mark.parametrize("width", WIDTHS)
def test_greedy_cover(width):
    for rng, table in tables(5, width):
        instance = CoverageInstance(table)
        taken = greedy_cover(instance)
        assert taken == ref_greedy_cover(instance)
        for selection in (taken, rand_bitvector(rng, table.height)):
            assert coverage_of(instance, selection) == \
                ref_coverage_of(instance, selection)


@pytest.mark.parametrize("faults", [1, 63, 64, 65, 256])
def test_build_repair_table(faults):
    rng = random.Random(6 + faults)
    side = 40
    cells = set()
    while len(cells) < faults:
        cells.add((rng.randint(1, side), rng.randint(1, side)))
    instance = RepairInstance(side, side, frozenset(cells), 3, 3)
    got = build_repair_table(instance)
    assert got.kinds == tuple(ref_default_spares(instance))
    assert list(got.table.rows) == ref_repair_rows(instance, got.kinds)
    assert got.table.width == faults


@pytest.mark.parametrize("width", WIDTHS)
def test_kernels_match_their_bit_vector_forms(width):
    for rng, table in tables(7, width):
        height = table.height
        for query in queries(rng, table):
            assert feasible_mask(table, query) == \
                bv_feasible_mask(table, query)
            assert best_match(query, table) == bv_best_match(query, table)
        for response in (rand_bitvector(rng, height),
                         BitVector.zeros(height), BitVector.ones(height)):
            for mode in DiagnosisMode:
                assert diagnose(table, response, mode) == \
                    bv_diagnose(table, response, mode)
            assert with_response_column(table, response).rows == \
                bv_with_response_column(table, response)
        instance = CoverageInstance(table)
        taken = greedy_cover(instance)
        assert taken == bv_greedy_cover(instance)
        for selection in (taken, rand_bitvector(rng, height)):
            assert coverage_of(instance, selection) == \
                bv_coverage_of(instance, selection)
        for pad in (0, 1, 64):
            assert table.widened(width + pad).rows == \
                bv_widened(table, width + pad)


@pytest.mark.parametrize("width", WIDTHS)
def test_exact_cover_oracle_matches_brute_force(width):
    # tables past EXHAUSTIVE_LIMIT rows raise TooLarge on both sides
    for _, table in tables(8, width):
        instance = CoverageInstance(table)
        assert outcome(exact_cover_oracle, instance) == \
            outcome(reference_cover_oracle, instance)
