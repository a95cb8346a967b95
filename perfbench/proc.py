"""Running the veclog CLI in child interpreters and checking its output."""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from workloads import Call, Op

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# what the installed ``veclog`` console script runs
CLI = "import sys; from veclog.cli import main; sys.exit(main())"

# Children are spawned by this small server, not by the benchmark: on Linux
# a child's max-RSS starts at the high-water RSS of the process that spawned
# it, and the benchmark's own (it holds every reference answer) would hide
# the CLI's.  The server times each batch of calls from the first spawn to
# the last exit and replies with one JSON line per batch.
SPAWNER = r"""
import json, os, sys, time
env = json.loads(sys.stdin.readline())
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
for line in sys.stdin:
    done = []
    start = time.perf_counter()
    for args, out, err in json.loads(line):
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                             file_actions=[
                                 (os.POSIX_SPAWN_OPEN, 0, os.devnull,
                                  os.O_RDONLY, 0),
                                 (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
                                 (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)])
        _, status, usage = os.wait4(pid, 0)
        done.append((os.waitstatus_to_exitcode(status),
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss))
    print(json.dumps([time.perf_counter() - start, done]), flush=True)
"""


# A fixed child timed right after every op: interpreter start plus a fixed
# pure-Python loop.  The host's speed swings by half again over tens of
# seconds; an op's time over the reference's cancels that.
REFERENCE = "s = 0\nfor i in range(400000):\n    s += i * i"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # every op after the warm-up reads cached bytecode, whatever the caller set
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _read(path: str) -> str:
    with open(path, encoding="ascii", errors="replace") as fh:
        return fh.read()


class Runner:
    """Runs ops as CLI children in ``workdir`` and checks their output.
    Close it to stop the spawner."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.seen: dict[tuple[str, ...], str] = {}
        self._spawner = subprocess.Popen(
            [sys.executable, "-c", SPAWNER], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self._spawner.stdin.write(json.dumps(child_env()) + "\n")

    def close(self) -> None:
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._spawner.kill()
            self._spawner.wait()
        self._spawner.stdout.close()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _files(self, k) -> tuple[str, str]:
        return (os.path.join(self.workdir, f"out-{k}"),
                os.path.join(self.workdir, f"err-{k}"))

    def spawn(self, calls: list[list[str]]) -> tuple[float, list]:
        """Run the interpreter once per argument list, one after another,
        output of call k to ``out-k``/``err-k``; return the wall seconds
        from the first spawn to the last exit and, per call, its exit code,
        CPU seconds and max-RSS in KiB."""
        batch = [[args, *self._files(k)] for k, args in enumerate(calls)]
        self._spawner.stdin.write(json.dumps(batch) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner exited")
        return json.loads(reply)

    def run(self, op: Op) -> dict:
        """Time one op; return its wall and CPU time, peak RSS and the first
        problem found in its output (None when every call was right)."""
        wall, done = self.spawn([["-c", CLI, *call.argv] for call in op])
        problem = None
        for k, (call, (code, _, _)) in enumerate(zip(op, done)):
            out, err = self._files(k)
            problem = self.problem(call, code, _read(out), _read(err))
            if problem:
                break
        return {"wall": wall, "cpu": sum(d[1] for d in done),
                "rss_kb": max(d[2] for d in done), "problem": problem}

    def problem(self, call: Call, code: int, stdout: str,
                stderr: str) -> "str | None":
        """The first way this call's result is wrong, or None."""
        what = " ".join(call.argv[:1] + call.argv[-2:])[:80]
        if "Traceback (most recent call last)" in stderr:
            return f"{what}: traceback: {stderr.strip().splitlines()[-1]}"
        if code != 0:
            return f"{what}: exit {code}: {stderr.strip()[:200]}"
        earlier = self.seen.get(call.argv)
        if earlier is None:
            mismatch = call.check(stdout)
            if mismatch:
                return f"{what}: {mismatch}"
            self.seen[call.argv] = stdout
        elif stdout != earlier:
            return f"{what}: stdout differs from an earlier op on this input"
        return None

    def reference(self) -> tuple[float, float]:
        """Wall and CPU seconds of one run of the reference child."""
        wall, [(status, cpu, _)] = self.spawn([["-c", REFERENCE]])
        if status != 0:
            raise RuntimeError(f"the reference child exited {status}")
        return wall, cpu

    def interp_ms(self, count: int = 9) -> float:
        """Median wall time of a bare ``python -c pass``: the start-up floor
        no change to the repository can move."""
        return statistics.median(self.spawn([["-c", "pass"]])[0] * 1e3
                                 for _ in range(count))

    def import_ms(self, count: int = 9) -> float:
        """Median time of ``import veclog.cli`` inside a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import veclog.cli; "
                "print((time.perf_counter() - t) * 1e3)")
        times = []
        for _ in range(count):
            _, [(status, _, _)] = self.spawn([["-c", code]])
            out, err = self._files(0)
            if status != 0:
                raise RuntimeError(f"import veclog.cli failed: {_read(err)}")
            times.append(float(_read(out)))
        return statistics.median(times)
