"""Seeded inputs and plain-int reference answers for the benchmark workloads.

Nothing in this module imports veclog.  Every expected answer is computed
from the generated integers with a formulation of its own (columns instead
of rows, column subsets instead of line combinations, a separate
interpreter for the microprograms), so a defect in the toolkit cannot hide
in its own reference.

A workload is a list of op kinds; op ``i`` uses kind ``i % len(kinds)`` and
draws one op of that kind from a small seeded pool.  An op is a tuple of CLI
calls made one after another.
"""
from __future__ import annotations

import hashlib
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable, Optional

PROGRAMS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "programs")

Check = Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Call:
    """One ``veclog`` invocation: its arguments and the check of its stdout,
    which returns a description of the first mismatch or None."""

    argv: tuple[str, ...]
    check: Check


Op = tuple[Call, ...]


@dataclass
class Workload:
    kinds: list[list[Op]]
    parse_sample: str  # a table file the traced run parses under tracemalloc

    def op(self, i: int, rng: random.Random) -> Op:
        pool = self.kinds[i % len(self.kinds)]
        return pool[rng.randrange(len(pool))]


# ---------------------------------------------------------------------------
# report checks

def _report(stdout: str) -> dict[str, str]:
    report: dict[str, str] = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if not sep or key in report:
            raise ValueError(f"malformed report line {line[:60]!r}")
        report[key] = value
    return report


def _expect(expected: dict[str, str],
            extra: Optional[Callable[[dict[str, str]], Optional[str]]] = None
            ) -> Check:
    """Check that every expected key is reported with exactly its value."""

    def check(stdout: str) -> Optional[str]:
        try:
            report = _report(stdout)
        except ValueError as exc:
            return str(exc)
        for key, value in expected.items():
            got = report.get(key)
            if got != value:
                return (f"{key}: expected {value[:60]!r}, "
                        f"got {got and got[:60]!r}")
        return extra(report) if extra else None

    return check


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()[:12]


def _bits(value: int, width: int) -> str:
    return format(value, f"0{width}b")


def _write_table(path: str, rows: list[int], width: int) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{len(rows)} {width}\n")
        fh.writelines(_bits(row, width) + "\n" for row in rows)


def _sparse_word(rng: random.Random, width: int) -> int:
    """A word with about one bit in eight set: the AND of three words."""
    return rng.getrandbits(width) & rng.getrandbits(width) \
        & rng.getrandbits(width)


# ---------------------------------------------------------------------------
# query

def query_call(rng: random.Random, path: str, height: int, width: int,
               every: int = 97) -> Call:
    """``veclog query`` on a random table with the query stored verbatim in
    every ``every``-th row, so feasible rows and best-match ties exist."""
    q = _sparse_word(rng, width)
    rows = [q if k % every == 0 else rng.getrandbits(width)
            for k in range(1, height + 1)]
    _write_table(path, rows, width)
    query = _bits(q, width)
    distance = [(q ^ row).bit_count() for row in rows]
    best = min(distance)
    feasible = [k for k, row in enumerate(rows, start=1) if row & q == q]
    expected = {"table-digest": _digest(path), "query": query,
                "rows": str(height), "width": str(width)}
    fset = set(feasible)
    for k in range(1, height + 1):
        expected[f"row-{k}"] = "feasible" if k in fset else "contradictory"
    expected.update({
        "feasible-rows": " ".join(map(str, feasible)) or "(none)",
        "best-rows": " ".join(str(k) for k, d in enumerate(distance, start=1)
                              if d == best),
        "best-quality": f"({best}/{width})",
        "status": "ok",
    })
    return Call(("query", path, query), _expect(expected))


def query_workload(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"query/{seed}")
    pool = [(query_call(rng, os.path.join(workdir, f"table-{n}.tbl"),
                        4096, 256),) for n in range(4)]
    return Workload([pool], pool[0][0].argv[1])


def probe_call(seed: int, workdir: str) -> Call:
    """``veclog query`` on a table one row taller than a vector may be long."""
    rng = random.Random(f"probe/{seed}")
    return query_call(rng, os.path.join(workdir, "probe.tbl"), 65537, 64)


# ---------------------------------------------------------------------------
# diagnose-repair

def _diagnose_calls(rng: random.Random, path: str, tests: int,
                    faults: int) -> tuple[Call, Call]:
    """Single-mode and multiple-mode ``veclog diagnose`` on one dictionary;
    the responses come from one and two injected fault columns."""
    rows = [rng.getrandbits(faults) for _ in range(tests)]
    _write_table(path, rows, faults)
    digest = _digest(path)
    text_rows = [_bits(row, faults) for row in rows]
    columns = ["".join(col) for col in zip(*text_rows)]  # column j top down
    picks = rng.sample(range(1, faults + 1), 2)
    calls = []
    for mode, injected in (("single", picks[:1]), ("multiple", picks)):
        response = "".join(
            "1" if any(columns[j - 1][i] == "1" for j in injected) else "0"
            for i in range(tests))
        if mode == "single":
            cands = [j for j, col in enumerate(columns, start=1)
                     if col == response]
        else:
            fail = int(response, 2)
            passing = fail ^ ((1 << tests) - 1)
            cands = [j for j, col in enumerate(columns, start=1)
                     if int(col, 2) & fail and not int(col, 2) & passing]
        if not set(injected) <= set(cands):
            raise AssertionError(f"injected faults {injected} are not all "
                                 f"candidates")
        vector = sum(1 << (faults - j) for j in cands)
        expected = {"table-digest": digest, "response": response,
                    "mode": mode, "candidate-vector": _bits(vector, faults),
                    "candidates": " ".join(f"c{j}" for j in cands),
                    "status": "ok"}
        calls.append(Call(("diagnose", path, response, "--mode", mode),
                          _expect(expected)))
    return calls[0], calls[1]


def _write_instance(path: str, rows: int, cols: int, spare_rows: int,
                    spare_cols: int, faults: list[tuple[int, int]]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{rows} {cols} {spare_rows} {spare_cols}\n")
        fh.writelines(f"{r} {c}\n" for r, c in faults)


def _cover_check(faults: set[tuple[int, int]], spare_rows: int,
                 spare_cols: int) -> Callable[[dict[str, str]],
                                              Optional[str]]:
    """The greedy plan repairs every fault within the spare budget."""

    def check(report: dict[str, str]) -> Optional[str]:
        chosen = report.get("greedy-cover", "").split()
        rows = {int(s[1:]) for s in chosen if s.startswith("R")}
        cols = {int(s[1:]) for s in chosen if s.startswith("C")}
        if len(rows) + len(cols) != len(chosen):
            return f"unreadable greedy cover {chosen[:8]}"
        missed = [f for f in faults if f[0] not in rows and f[1] not in cols]
        if missed:
            return f"greedy cover misses fault {missed[0]}"
        if len(rows) > spare_rows or len(cols) > spare_cols:
            return f"greedy cover {len(rows)}R+{len(cols)}C exceeds budget"
        return None

    return check


def _repair_call(rng: random.Random, path: str, size: int = 1024,
                 lines: int = 32, count: int = 1000) -> Call:
    """``veclog repair`` on ``count`` faults spread over ``lines`` faulty bit
    lines, with a spare budget that fits the greedy plan."""
    cols = sorted(rng.sample(range(1, size + 1), lines))
    cells = rng.sample(range(size * lines), count)
    faults = [(cell // lines + 1, cols[cell % lines]) for cell in cells]
    spare_rows, spare_cols = 8, lines
    _write_instance(path, size, size, spare_rows, spare_cols, faults)
    expected = {"instance-digest": _digest(path),
                "memory": f"{size}x{size}", "faults": str(count),
                "plan": "valid", "status": "ok"}
    return Call(("repair", path),
                _expect(expected, _cover_check(set(faults), spare_rows,
                                               spare_cols)))


def _min_covers(faults: set[tuple[int, int]], n: int
                ) -> tuple[int, list[tuple[int, int]]]:
    """Every minimum line cover of an n x n memory in which every row and
    column holds a fault, by enumerating all column subsets: a cover that
    takes the columns in ``cols`` must take every row with a fault outside
    them, and a minimum one takes nothing else.  Covers come back as
    (column mask, row mask) pairs, bit k-1 standing for line k."""
    rows_of_col = [0] * (n + 1)
    for r, c in faults:
        rows_of_col[c] |= 1 << (r - 1)
    best, covers = n + n + 1, []
    for cols in range(1 << n):
        rows = 0
        for c in range(1, n + 1):
            if not cols >> (c - 1) & 1:
                rows |= rows_of_col[c]
        size = cols.bit_count() + rows.bit_count()
        if size < best:
            best, covers = size, [(cols, rows)]
        elif size == best:
            covers.append((cols, rows))
    return best, covers


def _oracle_call(rng: random.Random, path: str, n: int = 10,
                 minimum: int = 9) -> Call:
    """``veclog repair --oracle`` on an n x n memory sampled until every line
    holds a fault (2n candidate spares) and the minimum cover is
    ``minimum``; the oracle then enumerates sum(C(2n, s), s=1..minimum)
    combinations."""
    while True:
        faults = {(r, c) for r in range(1, n + 1) for c in range(1, n + 1)
                  if rng.random() < 0.2}
        if len({r for r, _ in faults}) == n == len({c for _, c in faults}):
            best, covers = _min_covers(faults, n)
            if best == minimum:
                break
    ordered = sorted(faults)
    rng.shuffle(ordered)
    _write_instance(path, n, n, n, n, ordered)
    # spare k (1-based) is column k for k <= n, row k - n after that
    listed = sorted(
        tuple([c for c in range(1, n + 1) if cols >> (c - 1) & 1]
              + [n + r for r in range(1, n + 1) if rows >> (r - 1) & 1])
        for cols, rows in covers)
    label = ["", *(f"C{c}" for c in range(1, n + 1)),
             *(f"R{r}" for r in range(1, n + 1))]
    # greedy scan over the spares in table order: take a line iff it
    # repairs a fault no earlier line repaired
    covered: set[tuple[int, int]] = set()
    greedy = 0
    for k in range(1, 2 * n + 1):
        hit = {f for f in faults
               if (f[1] == k if k <= n else f[0] == k - n)} - covered
        if hit:
            greedy += 1
            covered |= hit
    expected = {"instance-digest": _digest(path), "memory": f"{n}x{n}",
                "faults": str(len(faults)), "plan": "valid",
                "oracle-minimum": str(best),
                "oracle-cover-count": str(len(listed)),
                "ratio": f"{greedy}/{best} = {greedy / best:.3f}",
                "status": "ok"}
    for i, cover in enumerate(listed, start=1):
        expected[f"oracle-cover-{i}"] = " ".join(label[k] for k in cover)
    return Call(("repair", path, "--oracle"),
                _expect(expected, _cover_check(faults, n, n)))


def diagnose_repair_workload(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"diagnose-repair/{seed}")
    single, multiple = [], []
    for n in range(2):
        single_call, multiple_call = _diagnose_calls(
            rng, os.path.join(workdir, f"dictionary-{n}.tbl"), 2048, 256)
        repair = _repair_call(rng, os.path.join(workdir, f"memory-{n}.rep"))
        oracle = _oracle_call(rng, os.path.join(workdir, f"cluster-{n}.rep"))
        single.append((single_call, repair, oracle))
        multiple.append((multiple_call, repair, oracle))
    return Workload([single, multiple], single[0][0].argv[1])


# ---------------------------------------------------------------------------
# sim-grid

def run_program(source: str, rows: list[int], width: int,
                regs: dict[str, int]) -> tuple[dict[str, int], int]:
    """Reference interpreter for the opcodes the shipped microprograms use;
    returns the final registers and the step count."""
    code = [(words[0].upper(), words[1:]) for words in
            (raw.split(";", 1)[0].split() for raw in source.splitlines())
            if words]
    full = (1 << width) - 1
    rows = list(rows)
    regs = dict(regs)
    pc = steps = 0
    loop_pc = row = 0

    def value(token: str) -> int:
        if token.upper().startswith("A["):
            index = row if token[2:-1] == "@" else int(token[2:-1])
            return rows[index - 1]
        return regs[token]

    while pc < len(code):
        op, args = code[pc]
        steps += 1
        pc += 1
        if op == "HALT":
            break
        if op == "AND":
            regs[args[0]] = value(args[1]) & regs[args[2]]
        elif op == "OR":
            regs[args[0]] = value(args[1]) | regs[args[2]]
        elif op == "XOR":
            regs[args[0]] = value(args[1]) ^ regs[args[2]]
        elif op == "NOT":
            regs[args[0]] = full ^ value(args[-1])
        elif op == "DEVOR":
            k = row if args[1] == "@" else int(args[1])
            bit = 1 << (width - k)
            dst = args[0]
            regs[dst] = regs[dst] | bit if value(args[2]) else regs[dst] & ~bit
        elif op == "SETALL":
            regs[args[0]] = full
        elif op == "CLRALL":
            regs[args[0]] = 0
        elif op == "STOREROW":
            rows[(row if args[0][2:-1] == "@" else int(args[0][2:-1])) - 1] \
                = regs[args[1]]
        elif op == "LOOP" and args == ["*"]:
            loop_pc, row = pc, 1
        elif op == "ENDLOOP":
            if row < len(rows):
                row += 1
                pc = loop_pc
        else:
            raise ValueError(f"reference interpreter lacks {op} {args}")
    return regs, steps


# (program, table height, table width, preset mb with a query)
GRID_CELLS = (
    *[("feasible.lamp", 160, 160, True)] * 4,
    *[("coverage.lamp", 160, 160, False)] * 4,
    *[("restrict.lamp", 160, 160, True)] * 4,
    *[("diagnosis-single-64.lamp", 160, 64, False)] * 2,
    *[("diagnosis-multiple-64.lamp", 160, 64, False)] * 2,
)
CELL_KINDS = tuple(cell[0].split("-")[0].split(".")[0] for cell in GRID_CELLS)


def _cell_rows(rng: random.Random, program: str, height: int,
               width: int, q: int) -> list[int]:
    if program.startswith("feasible"):
        return [q if k % 7 == 0 else rng.getrandbits(width)
                for k in range(1, height + 1)]
    if program.startswith("coverage"):
        return [_sparse_word(rng, width) for _ in range(height)]
    if program.startswith("restrict"):
        return [rng.getrandbits(width) for _ in range(height)]
    # diagnosis: a 63-fault dictionary plus the response of the injected
    # faults as the last column
    faults = width - 1
    injected = rng.sample(range(1, faults + 1),
                          1 if "single" in program else 2)
    mask = sum(1 << (faults - j) for j in injected)
    dictionary = [rng.getrandbits(faults) for _ in range(height)]
    return [row << 1 | (1 if row & mask else 0) for row in dictionary]


def _grid_call(rng: random.Random, workdir: str, n: int) -> Call:
    sources = {}
    lines, expected = [], {}
    for idx, (program, height, width, preset) in enumerate(GRID_CELLS):
        if program not in sources:
            shutil.copy(os.path.join(PROGRAMS, program), workdir)
            with open(os.path.join(PROGRAMS, program), encoding="ascii") as fh:
                sources[program] = fh.read()
        q = _sparse_word(rng, width)
        rows = _cell_rows(rng, program, height, width, q)
        data = f"grid-{n}-cell-{idx + 1}.tbl"
        _write_table(os.path.join(workdir, data), rows, width)
        regs = dict.fromkeys(("ma", "mb", "mc", "md"), 0)
        line = f"{program} {data}"
        if preset:
            regs["mb"] = q
            line += f" mb={_bits(q, width)}"
        lines.append(line)
        final, steps = run_program(sources[program], rows, width, regs)
        cell = f"cell-{idx // 4 + 1}-{idx % 4 + 1}"
        expected[f"{cell}-steps"] = str(steps)
        for name, value in final.items():
            expected[f"{cell}-{name}"] = _bits(value, width)
    expected["status"] = "ok"
    manifest = os.path.join(workdir, f"grid-{n}.txt")
    with open(manifest, "w", encoding="ascii") as fh:
        fh.writelines(line + "\n" for line in lines)
    return Call(("sim", "--grid", manifest), _expect(expected))


def sim_grid_workload(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"sim-grid/{seed}")
    pool = [(_grid_call(rng, workdir, n),) for n in range(2)]
    return Workload([pool], os.path.join(workdir, "grid-0-cell-1.tbl"))


WORKLOADS = {
    "query": query_workload,
    "diagnose-repair": diagnose_repair_workload,
    "sim-grid": sim_grid_workload,
}
