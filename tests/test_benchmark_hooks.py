"""The benchmark's traced replay still finds every library function it patches.

perfbench/replay.py swaps pose, rhythm, audio, metrics and inversion
functions (read_wav, onset_envelope, train, batch_loss, gradcheck, ...)
for traced copies by name, and relies on the CLI and on train and
gradcheck reaching them through module globals; a rename or a refactor
that bypasses them breaks the benchmark without breaking any other test.
The benchmark also fails a run whose traced replay writes different bytes
from the untraced command, so these runs check that too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _smoke_replay(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0, proc.stdout[-2000:]
    return result


@pytest.mark.slow
def test_inversion_smoke_replay_runs_clean():
    _smoke_replay("inversion")


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["long-take", "clip-batch"])
def test_audio_smoke_replay_runs_clean(workload):
    result = _smoke_replay(workload)
    # each stage the replay patches by name was reached through it, so its layer was traced
    for name in ("audio.onset_s", "audio.pick_s", "rhythm.discretize_s", "rhythm.accel_s",
                 "rhythm.total_s", "rhythm.peaks_s"):
        assert result["metrics"][name]["value"] > 0, name
