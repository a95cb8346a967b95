"""Golden CLI transcripts: every recorded command line, replayed through
``veclog.cli.main``, prints the same stdout and stderr bytes and exits with
the same code.  ``tests/golden/record.py`` wrote the cases and their input
files; its docstring says when a case may change."""
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import veclog
from golden.record import INPUTS, PLACE, run_case

CASES = json.loads((Path(__file__).parent / "golden" / "cases.json")
                   .read_text(encoding="ascii"))


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_transcript(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    monkeypatch.chdir(INPUTS)
    want = {key: case[key] for key in ("stdout", "stderr", "exit")}
    assert run_case(case["argv"]) == want


def cli_process(argv, cwd):
    """What ``python -m veclog.cli argv`` writes to its stdout and stderr
    pipes, as text, and its exit code: the bytes a real process exit
    delivers, under default buffering."""
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": str(Path(veclog.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    run = subprocess.run([sys.executable, "-m", "veclog.cli", *argv],
                         cwd=cwd, env=env, capture_output=True, timeout=60)
    return {"stdout": run.stdout.decode("utf-8"),
            "stderr": run.stderr.decode("utf-8"), "exit": run.returncode}


# one case per subcommand, both JSON reports, and every way a run ends: a
# domain failure, a sim fault, input errors (one naming a path) and
# argparse usage errors
IN_PROCESSES = ["query-labels-1100", "query-json", "diagnose-json-inconsistent",
                "repair-memory", "repair-memory-oracle", "sim-quality",
                "sim-quality-max-steps-1", "grid-json", "grid-bad-program",
                "quality-reference", "query-bad-symbol", "max-steps-alpha",
                "no-subcommand"]


@pytest.mark.parametrize("name", IN_PROCESSES)
def test_transcript_from_a_process(name):
    """The replay's transcripts are what a CLI process leaves in its pipes
    when it exits."""
    case = next(c for c in CASES if c["id"] == name)
    got = cli_process(case["argv"], INPUTS)
    got["stdout"] = got["stdout"].replace(str(INPUTS), PLACE)
    got["stderr"] = got["stderr"].replace(str(INPUTS), PLACE)
    assert got == {key: case[key] for key in ("stdout", "stderr", "exit")}


def test_a_report_longer_than_a_pipe_leaves_the_process_whole(tmp_path,
                                                              monkeypatch):
    rng = random.Random("long-report")
    rows = [format(rng.getrandbits(16), "016b") for _ in range(4096)]
    (tmp_path / "t.tbl").write_text("4096 16\n" + "\n".join(rows) + "\n")
    argv = ["query", "t.tbl", rows[97]]
    got = cli_process(argv, tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert len(got["stdout"]) > 1 << 16  # more than a Linux pipe holds
    assert got == run_case(argv)


def test_every_def_the_replay_misses_is_allowed():
    """``tests/reach.py``, in a fresh interpreter: each def in
    ``src/veclog/`` that no case enters is on its allow-list, with the
    reason it stays, and no entry there is stale."""
    reach = Path(__file__).parent / "reach.py"
    run = subprocess.run([sys.executable, str(reach)], capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stdout + run.stderr
