"""Command-line front end.

Subcommands: query, diagnose, repair, sim, quality.  Reports are
line-oriented ``key: value`` text (or one JSON document with ``--json``),
byte-identical across runs for identical inputs.  Bit strings always print
coordinate 1 first.  Exit codes: 0 success, 1 domain failure (inconsistent
diagnosis, not repairable, runtime fault), 2 input error.  Input files are
bytes that must be ASCII, each opened once by ``_load``, which hashes every
byte once for the digest line.  A binary table is read by
``assoc.read_table``, as a stream of row blocks while the file is in the
plain layout; other files are read whole.  Only the parsed value outlives
the read, and text reports are written a slice of lines at a time, so no
report is built beside a file's bytes or text.  SHA-256 loads at the first
digest.  Run as the program, ``main`` ends the process itself
(``os._exit``), so exit skips tearing the interpreter down.
"""
from __future__ import annotations

import atexit
import os
import sys
from itertools import chain, islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from veclog import vlcore
from veclog.vlcore import BitVector, EmptyInput, LengthMismatch, ParseError

if TYPE_CHECKING:  # each subcommand imports its own layer when it runs
    import argparse
    from fractions import Fraction

    from veclog import lamp

Report = list[tuple[str, object]]
# a text report is written this many lines at a time
_SLICE = 256


class InputError(Exception):
    """Bad file or argument; maps to exit code 2."""


def sha256(data: bytes = b""):
    """``hashlib.sha256(data)``, from the interpreter's builtin module when
    there is one (``_sha2`` on CPython 3.12+, ``_sha256`` below), which
    gives hashlib's digest without loading hashlib's OpenSSL binding, the
    costliest import a subcommand would otherwise pay for.  Imported at the
    first digest, so a run that prints none loads no SHA module."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256 as new
        else:
            from _sha256 import sha256 as new
    except ImportError:
        from hashlib import sha256 as new
    return new(data)


def _load(path: str, what: str = "", hashed: bool = True, parse=None):
    """(digest, value) of the file at ``path``: the SHA-256 of its bytes,
    None unless ``hashed``, and the binary table it holds, read by
    ``assoc.read_table``, or ``parse`` of its text.  A file that is not
    ASCII raises InputError with the codec's message, which names the first
    bad byte; with ``what``, so does a ParseError or EmptyInput."""
    seen = sha256() if hashed else None
    update = seen.update if hashed else None
    try:
        with open(path, "rb") as fh:
            if parse is None:
                from veclog import assoc

                value = _parsed(lambda f: assoc.read_table(f, update), fh,
                                what)
            else:
                data = fh.read()
                if hashed:
                    update(data)
                text = data.decode("ascii")
                value = _parsed(parse, text, what) if what else parse(text)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return "sha256:" + seen.hexdigest()[:12] if hashed else None, value


def _bits(vector: BitVector, dots: bool = False) -> str:
    text = str(vector)
    return text.replace("0", ".") if dots else text


def _emit(report: Iterable[tuple[str, object]], as_json: bool) -> None:
    if as_json:
        import json  # only --json reports need it

        print(json.dumps(dict(report), indent=2))
        return
    # A slice of lines at a time, the last by print: unbuffered, a write
    # into a closed pipe can end partial with no error, while a later write
    # (print's newline at the latest) raises BrokenPipeError.
    lines = (f"{key}: {value}" for key, value in report)
    slices = iter(lambda: "\n".join(islice(lines, _SLICE)), "")
    last = next(slices)
    for text in slices:
        sys.stdout.write(last + "\n")
        last = text
    print(last)


def _position(exc: ValueError) -> str:
    line, column = getattr(exc, "line", None), getattr(exc, "column", None)
    if line is None:
        return "" if column is None else f" at column {column}"
    return f" at line {line}" + ("" if column is None else f", column {column}")


def _parsed(parse, text, what: str):
    """``parse(text)``, with a ParseError or EmptyInput raised as the
    InputError that names ``what`` and the position."""
    try:
        return parse(text)
    except (ParseError, EmptyInput) as exc:
        raise InputError(f"bad {what}{_position(exc)}: {exc}") from exc


# ---------------------------------------------------------------------------
# query

def cmd_query(args: argparse.Namespace
              ) -> tuple[Iterable[tuple[str, object]], int]:
    from veclog import assoc

    if args.arith:
        digest, (rows, labels) = _load(args.table, "table",
                                       parse=assoc.parse_ternary_rows)
        query = _parsed(vlcore.TernaryVector.from_string, args.query, "query")
        height, width = len(rows), rows[0].length
    else:
        digest, table = _load(args.table, "table")
        query = _parsed(BitVector.from_string, args.query, "query")
        labels, height, width = table.row_labels, table.height, table.width
    if query.length != width:
        raise InputError(f"query width {query.length} does not match table "
                         f"width {width}")
    names = (f"row-{k}" for k in range(1, height + 1))  # made as printed
    if labels:
        names = (f"{name} ({label})" for name, label in zip(names, labels))
    report: Report = [("table", args.table), ("table-digest", digest),
                      ("query", args.query), ("rows", height),
                      ("width", width)]
    if args.arith:
        return _query_arith(query, rows, names, report)
    mask = str(assoc.feasible_mask(table, query))
    feasible = [str(k) for k, flag in enumerate(mask, start=1) if flag == "0"]
    best_rows, quality = assoc.best_match(query, table)
    tail: Report = [("feasible-rows", " ".join(feasible) or "(none)"),
                    ("best-rows", " ".join(str(k) for k in best_rows))]
    if labels:
        tail.append(("best-labels",
                     " ".join(labels[k - 1] for k in best_rows)))
    tail.append(("best-quality", str(quality)))
    tail.append(("status", "ok"))
    verdicts = map({"0": "feasible", "1": "contradictory"}.get, mask)
    return chain(report, zip(names, verdicts), tail), 0


def _query_arith(query: vlcore.TernaryVector,
                 rows: Sequence[vlcore.TernaryVector], names: Iterable[str],
                 report: Report) -> tuple[Report, int]:
    from veclog import metric

    best: Optional[Fraction] = None
    best_rows: list[int] = []
    for k, (name, row) in enumerate(zip(names, rows), start=1):
        aq = metric.quality_arith(query, row)
        report.append((name, f"quality {aq.quality} (distance {aq.distance}, "
                             f"query-in-stored {aq.query_in_stored}, "
                             f"stored-in-query {aq.stored_in_query})"))
        if best is None or aq.quality > best:
            best, best_rows = aq.quality, [k]
        elif aq.quality == best:
            best_rows.append(k)
    report.append(("best-rows", " ".join(str(k) for k in best_rows)))
    report.append(("best-quality", str(best)))
    report.append(("status", "ok"))
    return report, 0


# ---------------------------------------------------------------------------
# diagnose

def cmd_diagnose(args: argparse.Namespace) -> tuple[Report, int]:
    from veclog import assoc

    digest, table = _load(args.table, "table")
    response = _parsed(BitVector.from_string, args.response, "response")
    mode = assoc.DiagnosisMode(args.mode)
    candidates = assoc.diagnose(table, response, mode)
    labels = table.col_labels or tuple(f"c{j}" for j in
                                       range(1, table.width + 1))
    named = [label for label, flag in zip(labels, str(candidates))
             if flag == "1"]
    report: Report = [
        ("table", args.table),
        ("table-digest", digest),
        ("response", args.response),
        ("mode", mode.value),
        ("candidate-vector", _bits(candidates)),
        ("candidates", " ".join(named) or "(none)"),
        ("status", "ok" if candidates.value else "inconsistent"),
    ]
    return report, 0 if candidates.value else 1


# ---------------------------------------------------------------------------
# repair

def cmd_repair(args: argparse.Namespace) -> tuple[Report, int]:
    from veclog import cover

    digest, instance = _load(args.instance, "instance",
                             parse=cover.parse_repair_instance)
    report: Report = [
        ("instance", args.instance),
        ("instance-digest", digest),
        ("memory", f"{instance.rows}x{instance.cols}"),
        ("spare-budget", f"rows {instance.spare_rows} "
                         f"cols {instance.spare_cols}"),
        ("faults", len(instance.faults)),
    ]
    if not instance.faults:
        report.append(("status", "nothing-to-repair"))
        return report, 0
    ci = cover.build_repair_table(instance)
    report.append(("spares", " ".join(spare.label for spare in ci.kinds)))
    taken = cover.greedy_cover(ci)
    chosen = [ci.kinds[k - 1] for k in cover.selected_rows(taken)]
    report.append(("greedy-mask", _bits(taken)))
    report.append(("greedy-cover", " ".join(s.label for s in chosen)))

    status, code = "ok", 0
    try:
        remap = cover.repair_plan(instance, chosen)
        report.append(("plan", "valid"))
        report.append(("remap", " ".join(
            f"{spare.label}->spare-{spare.axis}-{ordinal}"
            for spare, ordinal in remap)))
    except cover.BudgetExceeded as exc:
        report.append(("plan", f"budget-exceeded ({exc})"))
        status, code = "budget-exceeded", 1

    if args.oracle or status == "budget-exceeded":  # does any cover fit it?
        try:
            covers = cover.exact_cover_oracle(ci)
        except cover.Infeasible:
            covers = "infeasible"
        except cover.TooLarge:
            covers = "too-large"
        if covers == "infeasible" and status == "budget-exceeded":
            status = "not-repairable"
    if args.oracle and isinstance(covers, str):
        report.append(("oracle", covers))
    elif args.oracle:
        minimum = len(covers[0])
        report.append(("oracle-minimum", minimum))
        report.append(("oracle-cover-count", len(covers)))
        for i, rows in enumerate(covers, start=1):
            report.append((f"oracle-cover-{i}", " ".join(
                ci.kinds[k - 1].label for k in rows)))
        report.append(("ratio", f"{len(chosen)}/{minimum} = "
                                f"{len(chosen) / minimum:.3f}"))
    report.append(("status", status))
    return report, code


# ---------------------------------------------------------------------------
# sim

def _parse_reg_presets(items: Sequence[str], width: int) -> dict:
    from veclog import lamp

    presets = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or name.lower() not in lamp.REGISTERS:
            raise InputError(f"register preset must look like ma=1010, "
                             f"got {item!r}")
        if name.lower() in presets:
            raise InputError(f"register {name.lower()} is preset twice")
        vector = _parsed(BitVector.from_string, value, f"preset for {name}")
        if vector.length != width:
            raise InputError(f"preset for {name} has width {vector.length}, "
                             f"table width is {width}")
        presets[name.lower()] = vector
    return presets


def _load_cell(program_path: str, data_path: str, reg_specs: Sequence[str],
               programs: dict, hashed: bool = True
               ) -> tuple[lamp.Program, lamp.SequencerState, Optional[str],
                          Optional[str]]:
    """The cell's program and start state, and the digests of its program
    and data files (None unless ``hashed``); program errors are raised
    before data errors.  ``programs`` keeps each program file's program and
    digest, so it is read once."""
    from veclog import lamp

    if program_path not in programs:
        try:
            digest, program = _load(program_path, hashed=hashed,
                                    parse=lamp.assemble)
        except (lamp.AssemblyError, EmptyInput) as exc:
            raise InputError(f"{program_path}: {exc}") from exc
        programs[program_path] = program, digest
    program, program_digest = programs[program_path]
    data_digest, table = _load(data_path, f"table {data_path}", hashed)
    presets = _parse_reg_presets(reg_specs, table.width)
    return (program, lamp.SequencerState(table, **presets), program_digest,
            data_digest)


def cmd_sim(args: argparse.Namespace) -> tuple[Report, int]:
    from veclog import lamp

    max_steps = args.max_steps or lamp.DEFAULT_MAX_STEPS
    if args.grid:
        return _sim_grid(args, max_steps)
    if not args.program or not args.data:
        raise InputError("sim needs a program file and a data file "
                         "(or --grid MANIFEST)")
    program, state, program_digest, data_digest = _load_cell(
        args.program, args.data, args.reg or [], {})
    report: Report = [("program", args.program),
                      ("program-digest", program_digest),
                      ("data", args.data), ("data-digest", data_digest)]
    try:
        final = lamp.run_sequencer(state, program, max_steps)
    except lamp.SimulationError as exc:
        report.append(("status", f"fault: {exc}"))
        return report, 1
    report += _registers(final, args.dots)
    if args.dump_memory:
        for i, row in enumerate(final.memory.rows, start=1):
            report.append((f"memory-{i}", _bits(row, args.dots)))
    report.append(("status", "ok"))
    return report, 0


def _registers(state: lamp.SequencerState, dots: bool,
               prefix: str = "") -> Report:
    """The ``steps`` line and one line per register of a final state."""
    from veclog import lamp

    return [(f"{prefix}steps", state.steps)] + [
        (prefix + name, _bits(getattr(state, name), dots))
        for name in lamp.REGISTERS]


def _sim_grid(args: argparse.Namespace,
              max_steps: int) -> tuple[Report, int]:
    from veclog import lamp

    unused = [*filter(None, (args.program, args.data)),
              *(f"--reg {spec}" for spec in args.reg or ()),
              *["--dump-memory"] * args.dump_memory]
    if unused:  # a manifest line names each cell's files and presets
        raise InputError(f"sim --grid does not use {', '.join(unused)}")
    base = os.path.dirname(os.path.abspath(args.grid))
    _, manifest = _load(args.grid, hashed=False, parse=str.splitlines)
    lines = [(number, ln.strip()) for number, ln
             in enumerate(manifest, start=1)
             if ln.strip() and not ln.strip().startswith("#")]
    if len(lines) != lamp.GRID_CELLS:
        raise InputError(f"grid manifest needs {lamp.GRID_CELLS} lines, "
                         f"got {len(lines)}")
    report: Report = [("grid-manifest", args.grid)]
    programs, cells, assembled = [], [], {}
    for (row, col), (number, line) in zip(lamp.GRID_POSITIONS, lines):
        parts = line.split()
        if len(parts) < 2:  # the file's own line number, comments counted
            raise InputError(f"manifest line {number}: need program and "
                             f"data paths")
        paths = [p if os.path.isabs(p) else os.path.join(base, p)
                 for p in parts[:2]]
        try:
            program, state, *_ = _load_cell(paths[0], paths[1], parts[2:],
                                            assembled, hashed=False)
        except InputError as exc:
            raise InputError(f"cell ({row},{col}): {exc}") from exc
        programs.append(program)
        cells.append(state)
    try:
        final = lamp.run_grid(lamp.GridState(tuple(cells)), programs,
                              max_steps)
    except lamp.GridCellError as exc:
        report.append(("status", f"fault: {exc}"))
        return report, 1
    for (row, col), cell in zip(lamp.GRID_POSITIONS, final.cells):
        report += _registers(cell, args.dots, f"cell-{row}-{col}-")
    report.append(("status", "ok"))
    return report, 0


# ---------------------------------------------------------------------------
# quality (design estimates)

def cmd_quality(args: argparse.Namespace) -> tuple[Report, int]:
    from veclog import dq

    try:
        inp = dq.DesignQualityInput(args.fault_prob, args.faults,
                                    args.testability, args.scan, args.logic)
    except dq.DomainError as exc:
        raise InputError(str(exc)) from exc
    out = dq.design_quality(inp)
    report: Report = [
        ("yield", f"{out.yield_estimate:.6f}"),
        ("fault-level", f"{out.fault_level:.6f}"),
        ("verification-time", f"{out.verification_time:.6f}"),
        ("hardware-redundancy", f"{out.hardware_redundancy:.6f}"),
        ("quality", f"{out.quality:.6f}"),
        ("status", "ok"),
    ]
    return report, 0


# ---------------------------------------------------------------------------

def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)  # argparse reports a ValueError by this type's name
    if value < 1:
        import argparse  # only the error needs it

        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_JSON = ("--json", dict(action="store_true"))

# Each subcommand's function, help line and arguments in argparse's order,
# an argument as its name or option string and its add_argument keywords.
# build_parser builds argparse from this table, and _accept reads the plain
# command lines argparse would accept straight from it.
_COMMANDS = {
    "query": (cmd_query, "feasibility and best match for a query", (
        ("table", dict(help="table file")),
        ("query", dict(help="query bit string (ternary with --arith)")),
        ("--arith", dict(action="store_true",
                         help="exact-rational ternary quality instead of the "
                              "vector criterion")),
        _JSON)),
    "diagnose": (cmd_diagnose, "locate fault columns from a test response", (
        ("table", dict(help="fault table file (rows = tests)")),
        ("response", dict(help="response bit string, one bit per test")),
        ("--mode", dict(choices=["single", "multiple"], default="single")),
        _JSON)),
    "repair": (cmd_repair, "plan spare-line repair for a faulty memory", (
        ("instance", dict(help="repair instance file")),
        ("--oracle", dict(action="store_true",
                          help="also list every minimum cover")),
        _JSON)),
    "sim": (cmd_sim, "run a microprogram on a sequencer or a 4x4 grid", (
        ("program", dict(nargs="?", help="program file")),
        ("data", dict(nargs="?", help="table file for the data memory")),
        ("--grid", dict(metavar="MANIFEST",
                        help="run 16 cells; one 'program data "
                             "[reg=bits...]' line per cell")),
        ("--reg", dict(action="append", metavar="NAME=BITS",
                       help="preset a register (repeatable)")),
        ("--max-steps", dict(type=positive_int)),  # None: lamp's default
        ("--dump-memory", dict(action="store_true")),
        ("--dots", dict(action="store_true",
                        help="render 0 coordinates as dots")),
        _JSON)),
    "quality": (cmd_quality, "design-quality estimates", (
        ("--fault-prob", dict(type=float, required=True,
                              help="fault-existence probability in [0,1]")),
        ("--faults", dict(type=int, required=True,
                          help="undetected-fault count")),
        ("--testability", dict(type=float, required=True,
                               help="testability grade in [0,1]")),
        ("--scan", dict(type=float, required=True,
                        help="assertion / boundary-scan complexity")),
        ("--logic", dict(type=float, required=True,
                         help="functional-logic complexity")),
        _JSON)),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only help, usage and errors need it; see _accept

    parser = argparse.ArgumentParser(
        prog="veclog",
        description="Vector-logic analysis: table queries, fault diagnosis, "
                    "repair planning, sequencer simulation, design quality.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, text, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for argument, keywords in arguments:
            command.add_argument(argument, **keywords)
        command.set_defaults(func=func)
    return parser


def _accept(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """What ``build_parser().parse_args(argv)`` returns, read from
    ``_COMMANDS`` without argparse, when argv is a subcommand, then its
    positionals, then options each spelled in full and followed by its
    value, if it takes one, that does not start with '-'.  None for any
    other argv (help, abbreviations, ``--opt=value``, ``--``, options before
    positionals, every error), which argparse reads instead."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, arguments = _COMMANDS[argv[0]]
    args = {"subcommand": argv[0], "func": func}
    options = {}
    at = 1
    for name, keywords in arguments:
        dest = name.lstrip("-").replace("-", "_")
        if name.startswith("-"):
            options[name] = dest, keywords
            if keywords.get("action") == "store_true":
                args[dest] = False
            elif not keywords.get("required"):
                args[dest] = keywords.get("default")
        elif at < len(argv) and not argv[at].startswith("-"):
            args[dest] = argv[at]
            at += 1
        elif keywords.get("nargs") == "?":
            args[dest] = None
        else:
            return None
    while at < len(argv):
        if argv[at] not in options:
            return None
        dest, keywords = options[argv[at]]
        action = keywords.get("action")
        if action == "store_true":
            args[dest] = True
            at += 1
            continue
        if at + 1 == len(argv) or argv[at + 1].startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(argv[at + 1])
        except Exception:  # argparse names the error, or raises it again
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        if action == "append":
            value = [*(args[dest] or ()), value]
        args[dest] = value
        at += 2
    if any(dest not in args for dest, _ in options.values()):
        return None  # a required option is missing
    return SimpleNamespace(**args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The exit status of the command line ``argv``.  With none, the program:
    ``sys.argv``, the atexit handlers, a flush of stdout and stderr, then
    ``os._exit``: no teardown, no ``__del__``; veclog starts no thread."""
    if argv is None:
        try:
            status = main(sys.argv[1:])
        except SystemExit as exc:  # help and usage errors
            status = exc.code
        atexit._run_exitfuncs()
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
        os._exit(status)
    args = _accept(argv)
    if args is None:  # argparse alone writes help, usage and argv errors
        args = build_parser().parse_args(argv)
    try:
        report, status = args.func(args)
    except (InputError, LengthMismatch, ParseError, EmptyInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if sys.stdout is None:  # fd 1 was closed: a reader that has left
        return 1
    try:
        _emit(chain([("command", " ".join(argv))], report), args.json)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; Python's SIGPIPE recipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
