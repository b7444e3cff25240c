"""The benchmark harness still runs the paper-shape workloads correctly.

``perfbench/run.py`` checks that every train step and eval batch repeats bit
for bit under one seed and counts one operation per ``forward_pass``; a
change that breaks either reads ``correct: false`` or ``failed > 0`` here.
The harness runs from a copy, so its results files land in a temporary
folder rather than in the checkout.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["paper-eval", "paper-train"])
def test_paper_workload_runs_correct_with_no_failures(workload, tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(source, bench)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    cmd = [sys.executable, str(bench / "run.py"), "--workload", workload]
    cmd += ["--seed", "3", "--seconds", "5", "--trace", "0"]
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=300, env=dict(os.environ), check=False
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["attempted"] > 0
