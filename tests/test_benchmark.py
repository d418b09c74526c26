"""The benchmark runs against this tree.

``perfbench/run.py`` reaches into the package by name: it traces the
modules ``sentclass.models.rnn`` and ``sentclass.models.lstm`` and calls
``harness.run._batch_functions`` for its gradient check.  A tiny traced run
of each recurrent workload keeps those names working.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["rnn-onehot", "lstm-embed"])
def test_tiny_traced_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--tiny", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    records = [json.loads(line) for line in done.stdout.splitlines()]
    assert records[-1]["correct"] is True
    # a helper the benchmark calls by name and cannot find is skipped and listed
    absent = next(r["trace"]["absent"] for r in records if "trace" in r)
    assert [name for name in absent if name.startswith("sentclass.")] == []
