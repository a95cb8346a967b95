"""Reach check: which functions of ``src/veclog/`` does no CLI run enter?

    python tests/reach.py

replays every case of ``tests/golden/cases.json`` through ``veclog.cli.main``
under ``sys.settrace`` and prints each ``def`` in ``src/veclog/`` that the
replay never entered, with its line count.  Each one must be in ``ALLOWED``
with the reason it stays: an acceptance criterion, a README section or a
north-star contract names it.  The script exits 1 when an unreached def is
not allowed, or when an entry is stale (it names a def that does not exist
or that the replay does reach), and 0 otherwise.

Run it as a script, in a fresh interpreter: a function that an earlier
caller ran and cached (``lamp._compiled`` keeps compiled programs in an
``lru_cache``) would otherwise look reached, or unreached, by accident.
"""
from __future__ import annotations

import ast
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = SRC / "veclog"

# module.qualname -> why a def that no golden CLI case enters stays
ALLOWED = {
    "__init__.__dir__": "README Library: lazy exports keep dir(veclog)",
    "assoc.AssociativeTable.__repr__": "README Library: tables print as "
                                       "AssociativeTable(2x3)",
    "assoc.AssociativeTable.widened": "criterion 9; README sim",
    "assoc.parse_table": "README Library: parse_table reads a table's text",
    "cover.NotCovering.__init__": "README Library: repair_plan raises it",
    "cover.coverage_of": "criterion 8",
    "lamp.coverage_search_source": "criterion 9",
    "lamp.diagnosis_source": "criterion 9",
    "lamp.feasible_search_source": "criterion 9",
    "lamp.quality_source": "README sim: shipped microprogram builders",
    "lamp.restrict_source": "README sim: shipped microprogram builders",
    "lamp.with_response_column": "criterion 9",
    "metric.beta_cycle_check": "criterion 5",
    "metric.better_of": "criterion 2",
    "metric.compact_quality": "criterion 1; README Library",
    "metric.quality_vector": "criteria 1 and 3; README Library",
    "vlcore.BitVector.__and__": "criterion 2 (better_of)",
    "vlcore.BitVector.__invert__": "README overview: coordinatewise logic",
    "vlcore.BitVector.__or__": "README overview: coordinatewise logic",
    "vlcore.BitVector.__repr__": "README Library: vectors print as "
                                 "BitVector('101')",
    "vlcore.BitVector.__xor__": "criteria 3 and 5",
    "vlcore.BitVector.ones": "criterion 8",
    "vlcore.TernaryVector.__repr__": "README Library: vectors print as "
                                     "TernaryVector('1x0')",
    "vlcore.TernaryVector.__str__": "README Library: vectors print as "
                                    "TernaryVector('1x0')",
    "vlcore.value_type.<locals>.__delattr__": "north star: immutable values",
    "vlcore.value_type.<locals>.__repr__": "README Library: the "
                                           "Name(field=value, ...) repr",
    "vlcore.value_type.<locals>.__setattr__": "north star: immutable values",
}


def defs() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line of its code object) -> (module.qualname, line
    count) of every def in the package; a decorated def's code starts at its
    first decorator."""
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] +
                            [d.lineno for d in child.decorator_list])
                found[str(path), first] = (f"{path.stem}.{prefix}{child.name}",
                                           child.end_lineno - first + 1)
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def replay() -> set[tuple[str, int]]:
    """(file, first line) of every code object the golden replay calls."""
    sys.path[:0] = [str(SRC), str(HERE)]
    from golden.record import INPUTS, run_case

    cases = json.loads((HERE / "golden" / "cases.json")
                       .read_text(encoding="ascii"))
    os.environ["COLUMNS"] = "80"  # as the golden replay runs them
    os.chdir(INPUTS)
    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))

    sys.settrace(tracer)
    try:
        for case in cases:
            run_case(case["argv"])
    finally:
        sys.settrace(None)
    return entered


def main() -> int:
    everything = defs()
    entered = replay()
    unreached = {name: lines for key, (name, lines) in everything.items()
                 if key not in entered}
    names = {name for name, _ in everything.values()}
    total = sum(unreached.values())
    print(f"{len(unreached)} of {len(everything)} defs in src/veclog/ "
          f"({total} lines) are not entered by the golden CLI cases:")
    for name, lines in sorted(unreached.items()):
        print(f"  {name:42} {lines:3} lines  "
              f"{ALLOWED.get(name, 'NOT ALLOWED')}")
    stale = sorted(name for name in ALLOWED
                   if name not in names or name not in unreached)
    for name in stale:
        why = "reached" if name in names else "no such def"
        print(f"stale allow-list entry: {name} ({why})")
    bad = [name for name in unreached if name not in ALLOWED]
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
