"""The package namespace, and which kinebeat modules each command loads.

The import checks run in fresh interpreters: in this process every module is
already loaded by the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kinebeat
from kinebeat.pose import serialize_pose_file

from conftest import click_wav_bytes, triangle_pose

SRC = str(Path(__file__).resolve().parent.parent / "src")
FRONT_END = ["kinebeat.audio", "kinebeat.cli", "kinebeat.pose", "kinebeat.rhythm"]

PRELUDE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("kinebeat."))
"""


def run_python(code, *args):
    """Run code in a fresh interpreter with src on its path; return its last stdout line,
    parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportGraph:
    def test_each_command_loads_only_what_it_runs(self, tmp_path):
        poses = tmp_path / "dance.json"
        poses.write_bytes(serialize_pose_file(triangle_pose(n_frames=400)))
        song = tmp_path / "song.wav"
        song.write_bytes(click_wav_bytes(120, seconds=5.12))
        rhythm_out, beats_out = tmp_path / "dance.rhythm.json", tmp_path / "song.beats.json"
        commands = [
            ["extract-rhythm", "--poses", str(poses), "--clip", "none", "--output", str(rhythm_out)],
            ["detect-beats", "--audio", str(song), "--output", str(beats_out)],
            ["evaluate", "--gen", str(rhythm_out), "--ref", str(beats_out), "--output",
             str(tmp_path / "scores.json")],
        ]
        steps = run_python("""
steps = {}
import kinebeat
steps["import kinebeat"] = loaded()
import kinebeat.cli
steps["import kinebeat.cli"] = loaded()
for argv in json.loads(sys.argv[1]):
    assert kinebeat.cli.main(argv) == 0, argv
    steps[argv[0]] = loaded()
print(json.dumps(steps))
""", json.dumps(commands))
        assert steps == {
            "import kinebeat": [],
            "import kinebeat.cli": FRONT_END,
            "extract-rhythm": FRONT_END,
            "detect-beats": FRONT_END,
            "evaluate": sorted(FRONT_END + ["kinebeat.metrics"]),
        }


class TestExitHook:
    @pytest.mark.parametrize("collector", ["enabled", "disabled"])
    def test_main_leaves_one_hook_that_freezes_the_heap_only_at_exit(self, tmp_path, collector):
        song, bad = tmp_path / "song.wav", tmp_path / "bad.wav"
        song.write_bytes(click_wav_bytes(120, seconds=5.12))
        bad.write_bytes(b"RIFF")
        commands = [
            ["detect-beats", "--audio", str(song), "--output", str(tmp_path / "beats.json")],
            ["tempo", "--audio", str(song), "--output", str(tmp_path / "tempo.json")],
            ["detect-beats", "--audio", str(bad)],
            ["detect-beats", "--audio", str(song), "--output", str(tmp_path / "beats.json")],
        ]
        state = run_python("""
import atexit, gc
from kinebeat.cli import main
if sys.argv[2] == "disabled":
    gc.disable()
seen = {"codes": [], "frozen": []}
# registered before main's hook, so it runs after it
atexit.register(lambda: print(json.dumps(dict(seen, at_exit=gc.get_freeze_count() > 0))))
hooks, enabled = atexit._ncallbacks(), gc.isenabled()
for argv in json.loads(sys.argv[1]):
    seen["codes"].append(main(argv))
    seen["frozen"].append(gc.get_freeze_count())
seen.update(hooks=atexit._ncallbacks() - hooks, enabled_as_it_was=gc.isenabled() == enabled)
""", json.dumps(commands), collector)
        assert state == {"codes": [0, 0, 2, 0], "frozen": [0, 0, 0, 0], "hooks": 1,
                         "enabled_as_it_was": True, "at_exit": True}


class TestNamespace:
    def test_modules_and_version(self):
        assert kinebeat.__version__ == "0.1.0"

    @pytest.mark.parametrize("name", ["no_such_name", "cli_main", "np"])
    def test_unknown_attribute_names_itself(self, name):
        with pytest.raises(AttributeError, match=f"^module 'kinebeat' has no attribute '{name}'$"):
            getattr(kinebeat, name)
