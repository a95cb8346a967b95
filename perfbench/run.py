#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the veclog CLI, with an in-process traced
mode that times each layer.

One workload; the last stdout line is one JSON result holding the metrics
BENCHMARK.json lists for that mode:

    python3 perfbench/run.py --workload query --seed 1 --seconds 30 --trace 0

Every workload, untraced and traced, every metric printed by name:

    python3 perfbench/run.py --all --seed 1 --seconds 30

Untraced runs spawn the CLI as subprocesses, one at a time (closed loop, one
client).  ``--trace 1`` replays the same ops in-process through
``veclog.cli.main`` with spans around each layer's public functions (see
tracing.py).  Inputs are generated under ``.perfbench_work/`` from the seed and
deleted at exit; results and spans are written to ``.perfbench_out/``.  The
standard library is all it needs.  Exit status is 0 when every checked op
matched its reference, 1 when one did not, 2 on a usage or setup error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import sys
import time

from proc import ROOT, SRC, Runner
from workloads import WORKLOADS, probe_call

WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "op_p50_rel": "ratio", "cpu_per_op_rel": "ratio",
    "op_ms_p50": "ms", "op_ms_tail": "ms", "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, as
    (value, percentile); the largest value when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def stamp() -> dict:
    head = os.path.join(ROOT, ".git", "HEAD")
    commit = "unknown (not a git checkout)"
    if os.path.isfile(head):
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            packed = os.path.join(ROOT, ".git", "packed-refs")
            if os.path.isfile(path):
                with open(path, encoding="ascii") as fh:
                    commit = fh.read().strip()
            elif os.path.isfile(packed):
                with open(packed, encoding="ascii") as fh:
                    for line in fh:
                        if line.rstrip().endswith(" " + ref[5:]):
                            commit = line.split()[0]
    digest = hashlib.sha256()
    package = os.path.join(SRC, "veclog")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_at_start": os.getloadavg(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def measure(name: str, seed: int, seconds: float, runner: Runner) -> dict:
    workdir = runner.workdir
    # set-up: inputs, reference answers and one untimed warm-up op, done
    # several times so that its median is steady
    warm, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        workload = WORKLOADS[name](seed, workdir)
        runner.seen.clear()
        warm.append(runner.run(workload.op(0, random.Random(seed))))
        setup_times.append(time.perf_counter() - began)
    rng = random.Random(f"ops/{seed}")
    results, in_reference = [], 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        result = runner.run(workload.op(len(results), rng))
        began = time.perf_counter()
        result["ref_wall"], result["ref_cpu"] = runner.reference()
        in_reference += time.perf_counter() - began
        results.append(result)
    elapsed = time.perf_counter() - start - in_reference

    checked = warm + results
    problems = [r["problem"] for r in checked if r["problem"]]
    walls = [r["wall"] * 1e3 for r in results]
    tail_ms, tail_pct = tail(walls)
    ok = sum(1 for r in results if not r["problem"])
    metrics = {
        "op_p50_rel": statistics.median(r["wall"] / r["ref_wall"]
                                        for r in results),
        "cpu_per_op_rel": statistics.median(r["cpu"] / r["ref_cpu"]
                                            for r in results),
        "op_ms_p50": statistics.median(walls),
        "op_ms_tail": tail_ms,
        "ops_per_s": ok / elapsed,
        "cpu_ms_per_op": statistics.median(r["cpu"] * 1e3 for r in results),
        "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024,
        "setup_s": statistics.median(setup_times),
    }
    info = {"timed_ops": len(results), "warm_up_ops": len(warm),
            "tail_percentile": round(tail_pct, 2),
            "setup_s_each": [round(t, 4) for t in setup_times],
            "wall_s_without_reference": round(elapsed, 4),
            "reference_ms_p50":
                statistics.median(r["ref_wall"] for r in results) * 1e3,
            "problems": problems[:5]}
    attempted, failed = len(checked), len(problems)
    probes = probes_failed = 0
    if name == "query":
        # after the timed phase, timed in no metric: a table taller than
        # the longest vector the core allows
        probe = runner.run((probe_call(seed, workdir),))
        probes, probes_failed = 1, int(bool(probe["problem"]))
        info["probe"] = {"shape": "65537x64", "failed": bool(probes_failed),
                         "problem": probe["problem"]}
    info["failed_frac"] = (failed + probes_failed) / (attempted + probes)
    info["cli.interp_ms"] = runner.interp_ms()
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "units": END_TO_END_UNITS, "info": info}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 stamped: dict) -> dict:
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        with Runner(workdir) as runner:
            if traced:
                import tracing
                result = tracing.measure(name, seed, seconds, runner, OUT)
            else:
                result = measure(name, seed, seconds, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    result.update(workload=name, seed=seed, seconds=seconds,
                  trace=int(traced), stamp=stamped)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{name}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=2)
    return result


def show(result: dict) -> None:
    """Print every metric by name with its unit, then the run's notes."""
    name = f"{result['workload']} (trace {result['trace']})"
    print(f"== {name}: attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:44s} {value:14.6g} {result['units'][metric]}")
    for key, value in result["info"].items():
        print(f"  # {key}: {json.dumps(value)}")


def last_line(result: dict) -> str:
    """The result line: the metrics ``BENCHMARK.json`` lists for this mode,
    each with the unit it declares there."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        declared = json.load(fh)["per_layer" if result["trace"]
                                 else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]],
                           "unit": m["unit"]} for m in declared}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if not os.path.isfile(os.path.join(SRC, "veclog", "cli.py")):
        print(f"error: no veclog sources under {SRC}", file=sys.stderr)
        return 2
    stamped = stamp()
    print("# " + json.dumps(stamped))
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), stamped)
        show(result)
        print(last_line(result))
        return 0 if result["failed"] == 0 else 1
    failed = 0
    for name in WORKLOADS:
        for traced in (False, True):
            result = run_workload(name, args.seed, args.seconds, traced,
                                  stamped)
            show(result)
            failed += result["failed"]
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
