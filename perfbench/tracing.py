"""In-process traced replay: per-layer time, work counts and errors.

The ops of a workload are replayed through ``veclog.cli.main(argv)`` with
stdout captured, alternating with the same call untraced.  For the traced
call every public layer function the CLI reaches is swapped for a wrapper
that records a span (name, start, end, parent, op id, error) and the work
it was handed; ``cli.main`` itself is the root span of each call.  Spans
stay in memory and are written out when the run ends.  A span's self time
is its duration minus its children's.  The program is single-threaded and
the load a closed loop, so no layer ever waits on a queue or a lock; each
reports its busy time, its work and its errors.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

from proc import SRC, ROOT, Runner
from workloads import CELL_KINDS, WORKLOADS, Call, Op, probe_call

# the public functions of each layer that the CLI calls
LAYERS = {
    "assoc": ("parse_table", "feasible_mask", "best_match", "diagnose"),
    "cover": ("parse_repair_instance", "build_repair_table", "greedy_cover",
              "exact_cover_oracle", "repair_plan"),
    "lamp": ("assemble", "run_sequencer", "run_grid"),
}


def _combos(n: int, k: int) -> int:
    return sum(math.comb(n, s) for s in range(1, k + 1))


# work a span was handed, from its arguments and result
WORK = {
    "assoc.parse_table": lambda a, r: {"bytes": len(a[0]), "rows": r.height},
    "assoc.feasible_mask": lambda a, r: {"rows": a[0].height},
    "assoc.best_match": lambda a, r: {"rows": a[1].height},
    "assoc.diagnose": lambda a, r: {"rows": a[0].height},
    "cover.build_repair_table": lambda a, r: {
        "cells": r.table.height * r.table.width},
    "cover.greedy_cover": lambda a, r: {"rows": a[0].table.height},
    "cover.exact_cover_oracle": lambda a, r: {
        "combos": _combos(a[0].table.height, len(r[0]))},
    "lamp.run_sequencer": lambda a, r: {"steps": r.steps},
}

PER_LAYER_UNITS = {
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
    "cli.report_ms": "ms", "cli.stdout_kb": "KiB",
    "assoc.parse_table.ms": "ms", "assoc.parse_table.mb_per_s": "MB/s",
    "assoc.parse_table.peak_kb": "KiB",
    "assoc.feasible_mask.ns_per_row": "ns/row",
    "assoc.best_match.ns_per_row": "ns/row",
    "assoc.diagnose.ns_per_row": "ns/row",
    "cover.parse_repair_instance.ms": "ms",
    "cover.build_repair_table.ms": "ms",
    "cover.build_repair_table.ns_per_cell": "ns/cell",
    "cover.greedy_cover.ns_per_row": "ns/row",
    "cover.exact_cover_oracle.ms": "ms",
    "cover.exact_cover_oracle.ns_per_combo": "ns/combo",
    "cover.oracle_combos": "count",
    "lamp.assemble.ms": "ms", "lamp.run_grid.ms": "ms",
    "lamp.run_sequencer.ms": "ms", "lamp.steps": "count",
    **{f"lamp.run_sequencer.ns_per_step.{kind}": "ns/step"
       for kind in ("feasible", "coverage", "restrict", "diagnosis")},
    **{f"{layer}.errors": "count"
       for layer in ("cli", "assoc", "cover", "lamp")},
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op: "int | str" = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = {"name": name, "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
                "error": None, "work": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if name in WORK:
            span["work"] = WORK[name](args, result)
        return result

    @contextlib.contextmanager
    def patched(self, modules: dict):
        """Swap each layer function for a traced wrapper; restore on exit."""
        saved = []
        for layer, names in LAYERS.items():
            module = modules[layer]
            for fname in names:
                fn = getattr(module, fname)
                saved.append((module, fname, fn))
                setattr(module, fname, self._wrapper(f"{layer}.{fname}", fn))
        try:
            yield
        finally:
            for module, fname, fn in saved:
                setattr(module, fname, fn)

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def invoke(main, call: Call, tracer: "Tracer | None" = None) -> tuple:
    """Run ``cli.main`` on one call with stdout and stderr captured; return
    (exit code, stdout, stderr) with a raised exception's traceback on
    stderr, as the console script would print it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.call("cli.main", main, list(call.argv)) \
                if tracer else main(list(call.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the CLI's crash is an op result
            err.write("Traceback (most recent call last):\n"
                      f"{type(exc).__name__}: {exc}\n")
            code = 1
    return code, out.getvalue(), err.getvalue()


def parse_peak_kb(parse_table, path: str) -> float:
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    tracemalloc.start()
    try:
        parse_table(text)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def layer_metrics(spans: list[dict], ops: list[int]
                  ) -> tuple[dict[str, float], dict[str, float]]:
    """Per-op medians of layer time and whole-run work ratios, and the
    per-op median self time of every span name, largest first."""
    children = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    per_op = {op: defaultdict(float) for op in ops}  # name -> per-op sum
    total = defaultdict(float)                      # name -> seconds
    work = defaultdict(float)                       # name.unit -> count
    kind_steps, kind_time = defaultdict(int), defaultdict(float)
    cells = defaultdict(int)
    for index, span in enumerate(spans):
        if span["op"] not in per_op:
            continue
        name, dur = span["name"], span["end"] - span["start"]
        sums = per_op[span["op"]]
        sums[name] += dur
        sums[name + ".self"] += dur - children[index]
        total[name] += dur
        for unit, count in span["work"].items():
            work[f"{name}.{unit}"] += count
            sums[f"{name}.{unit}"] += count
        if name == "lamp.run_sequencer":
            kind = CELL_KINDS[cells[span["op"]] % len(CELL_KINDS)]
            cells[span["op"]] += 1
            kind_steps[kind] += span["work"]["steps"]
            kind_time[kind] += dur

    def med(key: str, scale: float = 1e3) -> float:
        return statistics.median(per_op[op][key] for op in ops) * scale

    def per(name: str, unit: str) -> float:
        count = work[f"{name}.{unit}"]
        return total[name] / count * 1e9 if count else 0.0

    parsed = work["assoc.parse_table.bytes"]
    metrics = {
        "cli.main_ms": med("cli.main"),
        "cli.report_ms": med("cli.main.self"),
        "assoc.parse_table.ms": med("assoc.parse_table"),
        "assoc.parse_table.mb_per_s":
            parsed / total["assoc.parse_table"] / 1e6 if parsed else 0.0,
        "assoc.feasible_mask.ns_per_row": per("assoc.feasible_mask", "rows"),
        "assoc.best_match.ns_per_row": per("assoc.best_match", "rows"),
        "assoc.diagnose.ns_per_row": per("assoc.diagnose", "rows"),
        "cover.parse_repair_instance.ms": med("cover.parse_repair_instance"),
        "cover.build_repair_table.ms": med("cover.build_repair_table"),
        "cover.build_repair_table.ns_per_cell":
            per("cover.build_repair_table", "cells"),
        "cover.greedy_cover.ns_per_row": per("cover.greedy_cover", "rows"),
        "cover.exact_cover_oracle.ms": med("cover.exact_cover_oracle"),
        "cover.exact_cover_oracle.ns_per_combo":
            per("cover.exact_cover_oracle", "combos"),
        "cover.oracle_combos": med("cover.exact_cover_oracle.combos", 1),
        "lamp.assemble.ms": med("lamp.assemble"),
        "lamp.run_grid.ms": med("lamp.run_grid"),
        "lamp.run_sequencer.ms": med("lamp.run_sequencer"),
        "lamp.steps": med("lamp.run_sequencer.steps", 1),
    }
    for kind in ("feasible", "coverage", "restrict", "diagnosis"):
        steps = kind_steps[kind]
        metrics[f"lamp.run_sequencer.ns_per_step.{kind}"] = \
            kind_time[kind] / steps * 1e9 if steps else 0.0
    self_ms = {name: med(name + ".self") for name in total}
    return metrics, dict(sorted(self_ms.items(), key=lambda kv: -kv[1]))


def measure(name: str, seed: int, seconds: float, runner: Runner,
            outdir: str) -> dict:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from veclog import assoc, cli, cover, lamp
    modules = {"assoc": assoc, "cover": cover, "lamp": lamp}
    if not cli.__file__.startswith(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's")

    workload = WORKLOADS[name](seed, runner.workdir)
    tracer = Tracer()

    def problem(op: Op, outputs: list[tuple]) -> "str | None":
        for call, (code, stdout, stderr) in zip(op, outputs):
            found = runner.problem(call, code, stdout, stderr)
            if found:
                return found
        return None

    warm = workload.op(0, random.Random(seed))
    problems = [problem(warm, [invoke(cli.main, c) for c in warm])]
    rng = random.Random(f"ops/{seed}")
    plain, traced, stdout_kb = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = len(traced)
        op = workload.op(i, rng)
        # alternate which of the pair runs first
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            began = time.perf_counter()
            if with_spans:
                tracer.op = i
                with tracer.patched(modules):
                    outputs = [invoke(cli.main, c, tracer) for c in op]
                traced.append(time.perf_counter() - began)
                stdout_kb.append(sum(len(o[1]) for o in outputs) / 1024)
            else:
                outputs = [invoke(cli.main, c) for c in op]
                plain.append(time.perf_counter() - began)
            problems.append(problem(op, outputs))
    ops = list(range(len(traced)))

    info = {"traced_ops": len(traced), "untraced_ops": len(plain)}
    if name == "query":
        tracer.op = "probe"
        call = probe_call(seed, runner.workdir)
        with tracer.patched(modules):
            outputs = [invoke(cli.main, call, tracer)]
        info["probe"] = {"shape": "65537x64",
                         "problem": problem((call,), outputs)}

    metrics, self_ms = layer_metrics(tracer.spans, ops)
    metrics.update({
        "cli.interp_ms": runner.interp_ms(),
        "cli.import_ms": runner.import_ms(),
        "cli.stdout_kb": statistics.median(stdout_kb),
        "assoc.parse_table.peak_kb": parse_peak_kb(assoc.parse_table,
                                                   workload.parse_sample),
        "trace.overhead_frac":
            statistics.median(traced) / statistics.median(plain) - 1,
    })
    for layer in ("cli", "assoc", "cover", "lamp"):
        metrics[f"{layer}.errors"] = sum(
            1 for s in tracer.spans
            if s["error"] and s["name"].split(".")[0] == layer)
    info["self_ms_per_op"] = {k: round(v, 3) for k, v in
                              list(self_ms.items())[:6]}
    bad = [p for p in problems if p]
    info["problems"] = bad[:5]

    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"spans-{name}-seed{seed}.jsonl")
    with open(path, "w", encoding="ascii") as fh:
        for index, span in enumerate(tracer.spans):
            fh.write(json.dumps({
                "id": index, "name": span["name"], "op": span["op"],
                "parent": span["parent"], "error": span["error"],
                "start": span["start"] - start, "end": span["end"] - start,
                "work": span["work"]}) + "\n")
    info["spans"] = os.path.relpath(path, ROOT)
    return {"attempted": len(problems), "failed": len(bad),
            "metrics": {k: metrics[k] for k in PER_LAYER_UNITS},
            "units": PER_LAYER_UNITS, "info": info}
