"""Golden CLI transcripts: every recorded command line, replayed through
``veclog.cli.main``, prints the same stdout and stderr bytes and exits with
the same code.  ``tests/golden/record.py`` wrote the cases and their input
files; its docstring says when a case may change."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from golden.record import INPUTS, run_case

CASES = json.loads((Path(__file__).parent / "golden" / "cases.json")
                   .read_text(encoding="ascii"))


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_transcript(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    monkeypatch.chdir(INPUTS)
    want = {key: case[key] for key in ("stdout", "stderr", "exit")}
    assert run_case(case["argv"]) == want


def test_every_def_the_replay_misses_is_allowed():
    """``tests/reach.py``, in a fresh interpreter: each def in
    ``src/veclog/`` that no case enters is on its allow-list, with the
    reason it stays, and no entry there is stale."""
    reach = Path(__file__).parent / "reach.py"
    run = subprocess.run([sys.executable, str(reach)], capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stdout + run.stderr
