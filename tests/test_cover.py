import random
import sys
from itertools import combinations

import pytest

from helpers import (BREAKS, PADS, bit, outcome, rand_table,
                     reference_cover_oracle, reference_parse_repair_instance,
                     vectorize)
from veclog.assoc import AssociativeTable, DiagnosisMode, diagnose
from veclog.cover import (
    BudgetExceeded,
    CoverageInstance,
    Infeasible,
    NotCovering,
    RepairInstance,
    Spare,
    TooLarge,
    build_repair_table,
    coverage_of,
    exact_cover_oracle,
    greedy_cover,
    parse_repair_instance,
    repair_plan,
    selected_rows,
)
from veclog.vlcore import BitVector, LengthMismatch, ParseError

MEMORY_FAULTS = frozenset({(2, 2), (2, 5), (2, 8), (4, 3), (5, 5),
                           (5, 8), (7, 2), (8, 5), (9, 3), (9, 7)})


def memory_instance() -> RepairInstance:
    """13x15 module with ten faulty cells, 2 spare rows, 5 spare columns."""
    return RepairInstance(13, 15, MEMORY_FAULTS, 2, 5)


def bv(s):
    return BitVector.from_string(s)


def generic_instance(*rows):
    return CoverageInstance(AssociativeTable([int(r, 2) for r in rows],
                                             len(rows[0])))


def cover_labels(instance, mask):
    return [instance.kinds[k - 1].label for k in selected_rows(mask)]


class TestGreedy:
    def test_memory_module_cover(self):
        instance = build_repair_table(memory_instance())
        mask = greedy_cover(instance)
        assert mask == bv("11111000000")
        assert cover_labels(instance, mask) == ["C2", "C3", "C5", "C7", "C8"]

    def test_all_zero_rows(self):
        assert greedy_cover(generic_instance("000", "000")) == bv("00")

    def test_first_all_ones_row_suffices(self):
        assert greedy_cover(generic_instance("111", "110", "001")) == bv("100")

    def test_covers_everything_coverable(self):
        rng = random.Random(31)
        for _ in range(200):
            table = rand_table(rng, rng.randint(1, 12), rng.randint(1, 10))
            instance = CoverageInstance(table)
            mask = greedy_cover(instance)
            union = 0
            for row in table.rows:
                union |= row.value
            assert coverage_of(instance, mask).value == union

    def test_no_redundant_takes(self):
        rng = random.Random(32)
        for _ in range(200):
            table = rand_table(rng, rng.randint(1, 12), rng.randint(1, 10))
            mask = greedy_cover(CoverageInstance(table))
            covered = 0
            for k, row in enumerate(table.rows, start=1):
                if bit(mask, k):
                    assert row.value & ~covered, "row added nothing new"
                    covered |= row.value

    def test_coverage_selection_must_match_height(self):
        instance = generic_instance("100", "110")
        for taken in (bv("1"), bv("101")):
            with pytest.raises(LengthMismatch):
                coverage_of(instance, taken)

    def test_uncoverable_columns_reported(self):
        instance = generic_instance("100", "110")
        everything = BitVector.ones(instance.table.height)
        assert str(coverage_of(instance, everything)) == "110"  # column 3
        with pytest.raises(Infeasible,
                           match="^some columns are covered by no row$"):
            exact_cover_oracle(instance)


class TestExactOracle:
    def test_memory_module_minimum_covers(self):
        instance = build_repair_table(memory_instance())
        covers = exact_cover_oracle(instance)
        named = [tuple(instance.kinds[k - 1].label for k in rows)
                 for rows in covers]
        assert named == [
            ("C2", "C3", "C5", "C7", "C8"),
            ("C2", "C3", "C5", "C8", "R9"),
            ("C2", "C5", "C8", "R4", "R9"),
        ]

    def test_single_all_ones_row(self):
        assert exact_cover_oracle(generic_instance("111")) == ((1,),)

    def test_two_disjoint_rows(self):
        assert exact_cover_oracle(generic_instance("10", "01")) == ((1, 2),)

    def test_too_large(self):
        table = AssociativeTable([1] * 25, 1)
        with pytest.raises(TooLarge):
            exact_cover_oracle(CoverageInstance(table))

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            exact_cover_oracle(generic_instance("10", "10"))

    def test_budget_infeasible(self):
        # two columns, coverable only by one row spare plus one column spare
        table = AssociativeTable([0b10, 0b01], 2)
        kinds = (Spare("row", 1), Spare("row", 2))
        with pytest.raises(Infeasible):
            exact_cover_oracle(CoverageInstance(table, kinds,
                                                max_spare_rows=1,
                                                max_spare_cols=0))

    def test_returned_covers_verified(self):
        # verify the oracle against its own definition on random instances
        rng = random.Random(33)
        for _ in range(50):
            n, w = rng.randint(1, 8), rng.randint(1, 6)
            table = rand_table(rng, n, w)
            union = 0
            for row in table.rows:
                union |= row.value
            instance = CoverageInstance(table)
            full = (1 << w) - 1
            if union != full:
                with pytest.raises(Infeasible):
                    exact_cover_oracle(instance)
                continue
            covers = exact_cover_oracle(instance)
            size = len(covers[0])
            masks = [row.value for row in table.rows]
            for rows in covers:
                got = 0
                for k in rows:
                    got |= masks[k - 1]
                assert got == full
            # no smaller subset covers
            for smaller in combinations(range(1, n + 1), size - 1):
                got = 0
                for k in smaller:
                    got |= masks[k - 1]
                assert got != full
            # every covering subset of the minimum size was returned
            found = {rows for rows in covers}
            for combo in combinations(range(1, n + 1), size):
                got = 0
                for k in combo:
                    got |= masks[k - 1]
                if got == full:
                    assert combo in found


def oracle_outcome(oracle, instance):
    """The covers an oracle returns, or its exception's type and message."""
    try:
        return oracle(instance)
    except (Infeasible, TooLarge) as exc:
        return type(exc), str(exc)


def benchmark_shaped(rng: random.Random, n: int = 10) -> RepairInstance:
    """An n x n memory with a fault on every line at about 20% density and
    budget n/n, so all 2n spare lines are candidates."""
    while True:
        faults = frozenset((r, c) for r in range(1, n + 1)
                           for c in range(1, n + 1) if rng.random() < 0.2)
        if len({r for r, _ in faults}) == len({c for _, c in faults}) == n:
            return RepairInstance(n, n, faults, n, n)


class TestOracleMatchesReference:
    """The search against the brute-force enumeration: same covers in the
    same order, or the same exception with the same message."""

    def check(self, instance):
        got = oracle_outcome(exact_cover_oracle, instance)
        assert got == oracle_outcome(reference_cover_oracle, instance)
        return got

    def test_random_generic(self):
        rng = random.Random("oracle/generic")
        for _ in range(400):
            n, w = rng.randint(1, 12), rng.randint(1, 10)
            rows = [rng.getrandbits(w) & rng.getrandbits(w) for _ in range(n)]
            self.check(CoverageInstance(AssociativeTable(rows, w)))

    def test_random_kinds_and_budgets(self):
        rng = random.Random("oracle/budgets")
        kinds = (None, Spare("row", 1), Spare("column", 1))
        budgets = (None, 0, 1, 2, 3)
        outcomes = set()
        for _ in range(600):
            n, w = rng.randint(1, 12), rng.randint(1, 8)
            table = rand_table(rng, n, w)
            got = self.check(CoverageInstance(
                table, [rng.choice(kinds) for _ in range(n)],
                max_spare_rows=rng.choice(budgets),
                max_spare_cols=rng.choice(budgets)))
            outcomes.add(got[1] if got[0] is Infeasible else "covers")
        assert outcomes == {"covers", "some columns are covered by no row",
                            "no cover fits the spare budget"}

    def test_repair_tables_at_benchmark_shape(self):
        rng = random.Random("oracle/20-spares")
        for _ in range(3):
            coverage = build_repair_table(benchmark_shaped(rng))
            assert coverage.table.height == 20
            covers = self.check(coverage)
            assert len({len(c) for c in covers}) == 1

    def test_memory_module_under_every_small_budget(self):
        for spare_rows in range(4):
            for spare_cols in range(6):
                self.check(build_repair_table(RepairInstance(
                    13, 15, MEMORY_FAULTS, spare_rows, spare_cols)))

    def test_failures(self):
        assert self.check(generic_instance("10", "10"))[0] is Infeasible
        table = AssociativeTable([0b10, 0b01], 2)
        assert self.check(CoverageInstance(
            table, (Spare("row", 1), Spare("row", 2)),
            max_spare_rows=1, max_spare_cols=0))[0] is Infeasible
        assert self.check(CoverageInstance(
            AssociativeTable([1] * 25, 1)))[0] is TooLarge
        at_bound = CoverageInstance(AssociativeTable([1] * 24, 1))
        assert self.check(at_bound) == tuple((k,) for k in range(1, 25))


class TestBuildRepairTable:
    def test_memory_module_layout(self):
        instance = build_repair_table(memory_instance())
        assert [k.label for k in instance.kinds] == [
            "C2", "C3", "C5", "C7", "C8", "R2", "R4", "R5", "R7", "R8", "R9"]
        assert instance.table.width == 10
        # row C5 covers the faults in memory column 5
        assert str(instance.table.rows[2]) == "0100100100"
        # no labels: kinds names the rows, and column 1 is fault (2,2), the
        # first in sorted order, which spares C2 and R2 alone cover
        assert instance.table.row_labels is None
        assert instance.table.col_labels is None
        assert [k.label for k, row in zip(instance.kinds, instance.table.rows)
                if str(row)[0] == "1"] == ["C2", "R2"]

    def test_single_fault(self):
        instance = build_repair_table(RepairInstance(5, 5,
                                                     frozenset({(3, 4)}), 1, 1))
        assert [k.label for k in instance.kinds] == ["C4", "R3"]
        assert [str(r) for r in instance.table.rows] == ["1", "1"]

    def test_two_faults_same_row(self):
        instance = build_repair_table(
            RepairInstance(5, 8, frozenset({(3, 4), (3, 7)}), 1, 2))
        rows = {instance.kinds[i].label: str(instance.table.rows[i])
                for i in range(instance.table.height)}
        assert rows == {"C4": "10", "C7": "01", "R3": "11"}

    def test_popcount_sum_is_twice_fault_count(self):
        rng = random.Random(34)
        for _ in range(50):
            dims = (rng.randint(2, 10), rng.randint(2, 10))
            cells = [(r, c) for r in range(1, dims[0] + 1)
                     for c in range(1, dims[1] + 1)]
            faults = frozenset(rng.sample(cells, rng.randint(1, len(cells) // 2)))
            instance = build_repair_table(RepairInstance(dims[0], dims[1],
                                                         faults, 2, 2))
            total = sum(row.popcount for row in instance.table.rows)
            assert total == 2 * len(faults)

    def test_requires_faults(self):
        with pytest.raises(ValueError):
            build_repair_table(RepairInstance(3, 3, frozenset(), 1, 1))


class TestRepairPlan:
    def test_greedy_cover_is_valid(self):
        instance = memory_instance()
        cover = [Spare("column", c) for c in (2, 3, 5, 7, 8)]
        assert repair_plan(instance, cover) == tuple(
            (Spare("column", c), k) for k, c in enumerate((2, 3, 5, 7, 8), 1))
        # every fault's row and column are rows of its repair table, so
        # greedy's choice repairs every fault and at worst overruns a budget
        rng = random.Random(35)
        instances = []
        for _ in range(200):
            rows, cols = rng.randint(1, 12), rng.randint(1, 12)
            cells = [(r, c) for r in range(1, rows + 1)
                     for c in range(1, cols + 1)]
            faults = rng.sample(cells, rng.randint(1, len(cells)))
            instances.append(RepairInstance(rows, cols, frozenset(faults),
                                            rng.randint(0, 3),
                                            rng.randint(0, 3)))
        # the benchmark's shape: 1000 faults on 32 of 1024 columns
        columns = rng.sample(range(1, 1025), 32)
        faults = {(cell // 32 + 1, columns[cell % 32])
                  for cell in rng.sample(range(1024 * 32), 1000)}
        instances.append(RepairInstance(1024, 1024, frozenset(faults), 8, 32))
        outcomes = set()
        for instance in instances:
            table = build_repair_table(instance)
            chosen = [table.kinds[k - 1]
                      for k in selected_rows(greedy_cover(table))]
            try:  # NotCovering would escape
                repair_plan(instance, chosen)
                outcomes.add("planned")
            except BudgetExceeded:
                outcomes.add("budget-exceeded")
        assert outcomes == {"planned", "budget-exceeded"}

    def test_non_minimal_cover_is_still_valid(self):
        instance = memory_instance()
        cover = [Spare("column", c) for c in (2, 3, 5, 7, 8)] + [Spare("row", 2)]
        assert repair_plan(instance, cover) == tuple(
            (Spare("column", c), k) for k, c in enumerate((2, 3, 5, 7, 8), 1)
        ) + ((Spare("row", 2), 1),)

    def test_budget_exceeded(self):
        instance = RepairInstance(
            8, 8, frozenset((r, r) for r in range(1, 7)), 0, 5)
        cover = [Spare("column", c) for c in range(1, 7)]
        with pytest.raises(BudgetExceeded) as err:
            repair_plan(instance, cover)
        assert err.value.cols_used == 6
        assert err.value.max_cols == 5

    def test_not_covering_distinguished(self):
        instance = memory_instance()
        with pytest.raises(NotCovering) as err:
            repair_plan(instance, [Spare("column", 2)])
        assert (2, 5) in err.value.uncovered

    def test_row_and_column_ordinals_are_independent(self):
        instance = RepairInstance(9, 9,
                                  frozenset({(2, 3), (4, 5)}), 2, 2)
        remap = repair_plan(instance, [Spare("row", 2), Spare("row", 4)])
        assert remap == ((Spare("row", 2), 1), (Spare("row", 4), 2))

    def test_every_oracle_minimum_cover_plans_cleanly(self):
        instance = memory_instance()
        coverage = build_repair_table(instance)
        for rows in exact_cover_oracle(coverage):
            chosen = [coverage.kinds[k - 1] for k in rows]
            remap = repair_plan(instance, chosen)
            assert {spare for spare, _ in remap} == set(chosen)


class TestPipeline:
    def test_memory_module_end_to_end(self):
        """Test, diagnose, build the coverage table, cover, plan."""
        rng = random.Random(36)
        instance = memory_instance()
        model_rows = [rng.getrandbits(15) for _ in range(13)]
        mut = AssociativeTable(model_rows, 15)
        unit_rows = list(model_rows)
        for r, c in instance.faults:
            unit_rows[r - 1] ^= 1 << (15 - c)
        uut = AssociativeTable(unit_rows, 15)

        # test i fails when the unit's response differs from the model's
        outcome = vectorize(int(u != m)
                            for u, m in zip(uut.values, mut.values))
        assert outcome == bv("0101101110000")  # rows 2,4,5,7,8,9 fail

        # fault bitmap doubles as the diagnosis table: columns are memory
        # columns, a failing test detects the faulty columns in its row
        bitmap = AssociativeTable(
            [u ^ m for u, m in zip(uut.values, mut.values)], 15)
        located = diagnose(bitmap, outcome, DiagnosisMode.MULTIPLE)
        faulty_cols = {c for _, c in instance.faults}
        assert located == BitVector(
            sum(1 << (15 - c) for c in faulty_cols), 15)

        # recover coordinates from the bitmap and plan the repair
        recovered = frozenset(
            (i + 1, j)
            for i, row in enumerate(bitmap.rows)
            for j in range(1, 16) if bit(row, j))
        assert recovered == instance.faults
        coverage = build_repair_table(instance)
        mask = greedy_cover(coverage)
        chosen = [coverage.kinds[k - 1] for k in selected_rows(mask)]
        assert [s.label for s in chosen] == ["C2", "C3", "C5", "C7", "C8"]
        assert [spare for spare, _ in repair_plan(instance, chosen)] == chosen


class TestInstanceParsing:
    TEXT = "13 15 2 5\n" + "".join(
        f"{r} {c}\n" for r, c in sorted(MEMORY_FAULTS))

    def test_parse(self):
        instance = parse_repair_instance(self.TEXT)
        assert instance == memory_instance()

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_repair_instance("13 15 2\n1 1\n")

    def test_bad_fault_line(self):
        with pytest.raises(ParseError) as err:
            parse_repair_instance("4 4 1 1\n1 one\n")
        assert err.value.line == 2

    def test_out_of_range_fault(self):
        with pytest.raises(ParseError):
            parse_repair_instance("4 4 1 1\n5 1\n")


def _random_repair_text(rng: random.Random) -> str:
    """A repair instance text near the edge of the format: odd breaks and
    padding, blank lines, repeated faults and faults outside the memory,
    and sometimes a token or a line of a kind the parser must name."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    spares = [rng.randint(0, 3), rng.randint(0, 3)]
    faults = [[rng.randint(1, rows), rng.randint(1, cols)]
              for _ in range(rng.choice([0, 1, 2, 5, 9]))]
    for fault in faults:
        if rng.random() < 0.1:  # outside the memory, often more than one
            fault[rng.randrange(2)] = rng.choice([0, rows + 1, cols + 1, 9])
    faults += rng.sample(faults, min(len(faults), rng.choice([0, 0, 1, 2])))
    lines = [[str(n) for n in (rows, cols, *spares)]]
    lines += [[str(n) for n in fault] for fault in faults]
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        tokens = rng.choice(lines)
        k = rng.randrange(len(tokens))
        fault = rng.randrange(7)
        if fault == 0:  # a sign
            tokens[k] = rng.choice("+-") + tokens[k]
        elif fault == 1:  # a digit int() reads that is not ASCII
            tokens[k] = rng.choice(["\u0661", "\uff11"]) + tokens[k]
        elif fault == 2:  # more digits than int() converts
            tokens[k] = "1" * (max(sys.get_int_max_str_digits(), 4300) + 1)
        elif fault == 3:
            del tokens[k]
        elif fault == 4:
            tokens.insert(k, str(rng.randint(0, 9)))
        elif fault == 5:
            tokens[k] = rng.choice(["x", "1.5", "1e3", "0x1", "1_0"])
        else:  # a digit that is not decimal
            tokens[k] = tokens[k] + "\u00b2"
    if rng.random() < 0.02:
        lines = []  # an empty text
    style = rng.choice(BREAKS)
    pads = PADS if rng.random() < 0.3 else PADS[:3]

    def brk() -> str:
        return rng.choice(BREAKS) if rng.random() < 0.1 else style

    text = ""
    for tokens in lines:
        while rng.random() < 0.2:  # blank and whitespace-only lines
            text += rng.choice(["", *pads]) + brk()
        pad = rng.choice(pads) if rng.random() < 0.2 else " "
        text += rng.choice(["", *pads]) + pad.join(tokens) + brk()
    return text if rng.random() < 0.9 else text.rstrip("\n")


def test_parse_repair_instance_matches_reference_on_random_texts():
    """The reader returns what the line-by-line reference returns, or
    raises its exception with the same message and line."""
    rng = random.Random("repair-parse-diff")
    results = []
    for _ in range(3000):
        text = _random_repair_text(rng)
        got = outcome(parse_repair_instance, text)
        assert got == outcome(reference_parse_repair_instance, text), text
        results.append(got if isinstance(got, tuple) else "parsed")
    messages = {result[1].split(" ")[0] for result in results
                if result != "parsed"}
    parsed = results.count("parsed")
    assert parsed >= 1000 and len(results) - parsed >= 1000
    assert messages == {"empty", "header", "fault", "number"}
    assert sum("outside" in result[1] for result in results
               if result != "parsed") >= 100


# what may stand between two numbers on a line (\x1f is whitespace to
# str.split but no line break) and what may end a line
_GAPS = " \t\x1f"
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


def _random_separated_text(rng: random.Random) -> str:
    """Blank lines and lines of 1 to 5 numbers, most of them the header's
    four or a fault's two, over every separator: numbers apart by spaces,
    tabs and ``\\x1f``, now and then by a line break, and lines ended by each
    break ``str.splitlines`` knows."""
    def gap() -> str:
        if rng.random() < 0.02:
            return rng.choice(_BREAKS)
        return "".join(rng.choice(_GAPS) for _ in range(rng.randint(1, 2)))

    text = ""
    for k in range(rng.choice([0, 1, 2, 2, 3, 3, 4, 6, 6, 6])):
        while rng.random() < 0.2:  # a blank line, or a whitespace-only one
            text += rng.choice(["", *_GAPS]) + rng.choice(_BREAKS)
        count = 4 if k == 0 else 2
        if rng.random() < 0.06:
            count = rng.randint(1, 5)
        # memories of 3x3 and up, so a fault is now and then outside
        low, high = (3, 9) if k == 0 else (1, 4)
        numbers = [str(rng.randint(low, high)) for _ in range(count)]
        text += rng.choice(["", "", gap()]) + gap().join(numbers)
        text += rng.choice(["", gap()]) + rng.choice(_BREAKS)
    return text if rng.random() < 0.9 else text.rstrip("".join(_BREAKS))


def test_parse_repair_instance_matches_reference_on_separators():
    """Over every separator, the fast path's one ``text.split()`` reads
    what the line-by-line reference reads, or it gives way to the slow
    path, which raises the reference's exception, message and line."""
    rng = random.Random("repair-parse-separators")
    results, odd = [], 0
    for _ in range(3000):
        text = _random_separated_text(rng)
        got = outcome(parse_repair_instance, text)
        assert got == outcome(reference_parse_repair_instance, text), \
            repr(text)
        results.append(got if isinstance(got, tuple) else "parsed")
        odd += results[-1] == "parsed" and any(
            ch in text for ch in "\x0b\x0c\x1c\x1d\x1e\x1f")
    parsed = results.count("parsed")
    assert parsed >= 1500 and len(results) - parsed >= 800 and odd >= 500
    assert {result[1].split(" ")[0] for result in results
            if result != "parsed"} == {"empty", "header", "fault"}
    assert sum("outside" in result[1] for result in results
               if result != "parsed") >= 100
