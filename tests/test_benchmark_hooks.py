"""The benchmark's traced replay still finds every library function it patches.

perfbench/replay.py swaps inversion functions (train, batch_loss,
batch_loss_and_gradients, gradcheck, ...) for traced copies by name and
relies on train and gradcheck reaching the loss functions through module
globals; a rename or a refactor that bypasses them breaks the benchmark
without breaking any other test.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_inversion_smoke_replay_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inversion", "--seed", "3",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0, proc.stdout[-2000:]
