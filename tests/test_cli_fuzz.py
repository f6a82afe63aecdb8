"""Malformed and adversarial input to all six commands: exit 2 and one error line, never a traceback.

The corpus is built from inputs that once ended in a traceback, exit 1 or a
silent exit 0: JSON values that are not numbers where numbers belong
(400-digit ints, bools, null, strings, lists, objects, NaN and Infinity
literals), a UTF-8 BOM, invalid UTF-8, truncated documents, 100 000 nested
arrays, truncated RIFF files, NaN thresholds and numeric flags whose frame
count overflows; and usage errors (unknown flags, values that do not convert, missing
values or subcommands), which once printed a usage block and raised SystemExit.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinebeat.audio import DEFAULT_STFT_WINDOW
from kinebeat.cli import ENV_SEED, main
from kinebeat.inversion import ModelDims, make_teacher_student_dataset, sample_json_dict
from kinebeat.pose import serialize_pose_file

from conftest import click_wav_bytes, one_error_line, triangle_pose

HUGE = "1" + "0" * 400
NOT_NUMBERS = [HUGE, "-" + HUGE, "true", "false", "null", '"1"', "[1]", "[[0, 1]]", '{"a": 1}',
               "NaN", "Infinity", "-Infinity"]

GENRE = json.dumps([1] + [0] * (ModelDims().n_genres - 1))
SAMPLE = json.dumps(sample_json_dict(
    make_teacher_student_dataset(ModelDims(), "mlp", "regression", 1, seed=7, frozen_seed=1001)[0]
))
POSES = serialize_pose_file(triangle_pose(n_frames=320, half_period=30)).decode()
WAV = click_wav_bytes(120, seconds=2.0)
WAV_HEADER = 44  # RIFF + fmt + data chunk headers of a PCM16 mono file

# Each document kind: a valid document, and templates whose "#" stands where a number belongs.
DOCUMENTS = {
    "poses": (POSES, [
        '{"fps": #, "frames": [[[0, 0, 1]], [[1, 0, 1]], [[2, 0, 1]]]}',
        '{"fps": 60, "frames": [[[0, 0, 1]], [[1, #, 1]], [[2, 0, 1]]]}',
        '{"fps": 60, "frames": [[[0, 0, 1]], [[1, 0, 1]], [[2, 0, #]]]}',
    ]),
    "beats": ('{"beats_sec": [0.5, 1.0]}', [
        '{"beats_sec": [0.5, #]}',
        '{"beats_sec": [#]}',
    ]),
    "rhythm": ('{"fps": 60, "bits": [0, 0, 1, 0]}', [
        '{"fps": #, "bits": [0, 0, 1, 0]}',
        '{"fps": 60, "bits": [0, 0, #, 0]}',
    ]),
    "tempo": ('{"bpm": 120.0}', ['{"bpm": #}']),
    "sample": (SAMPLE, [
        '{"rhythm": {"fps": 60, "bits": [0, 0, #]}, "genre": %s, "target": [0.5]}' % GENRE,
        '{"rhythm": {"fps": 60, "bits": [0, 0, 1]}, "genre": [#, 1], "target": [0.5]}',
        '{"rhythm": {"fps": 60, "bits": [0, 0, 1]}, "genre": %s, "target": [0.5, #]}' % GENRE,
        SAMPLE.replace('{"fps": 60.0,', '{"fps": #,', 1),  # otherwise valid, so only fps can fail
    ]),
}

BAD_FLAGS = [
    ["extract-rhythm", "--min-value", "nan"],
    ["extract-rhythm", "--min-rel", "nan"],
    ["extract-rhythm", "--clip", "1e308"],
    ["extract-rhythm", "--bins", "1" + "0" * 20],
    ["extract-rhythm", "--window", "inf"],
    ["extract-rhythm", "--conf-threshold", "nan"],
    ["detect-beats", "--delta", "nan"],
    ["detect-beats", "--peak-window", "nan"],
    ["tempo", "--bpm-min", "1e-320"],
    ["tempo", "--bpm-max", "nan"],
    ["evaluate", "--tolerance", "nan"],
    ["train-toy", "--lr", "nan"],
    ["train-toy", "--epochs", "-1"],
]

# argparse usage errors, which end as bad input does: no usage block and no SystemExit
USAGE_ERRORS = [
    ["extract-rhythm", "--poses", "p.json", "--bogus"],
    ["extract-rhythm", "--poses", "p.json", "--bins", "abc"],
    ["gradcheck", "--seed", "1.5"],
    ["detect-beats", "--audio"],
    ["train-toy", "--data", "d", "--variant", "nope"],
    ["tempo", "--bpm-min", "60"],
    [],
]


@st.composite
def bad_numbers(draw):
    kind = draw(st.sampled_from(sorted(DOCUMENTS)))
    template = draw(st.sampled_from(DOCUMENTS[kind][1]))
    return kind, template.replace("#", draw(st.sampled_from(NOT_NUMBERS))).encode()


@st.composite
def corrupt_documents(draw):
    kind = draw(st.sampled_from(sorted(DOCUMENTS)))
    valid = DOCUMENTS[kind][0].encode()
    how = draw(st.sampled_from(["bom", "byte", "truncate", "nested"]))
    if how == "bom":
        return kind, b"\xef\xbb\xbf" + valid
    if how == "byte":
        at = draw(st.integers(0, len(valid)))
        return kind, valid[:at] + b"\xff" + valid[at:]
    if how == "truncate":  # a strict prefix of a JSON object is never valid
        return kind, valid[: draw(st.integers(0, len(valid) - 1))]
    return kind, b"[" * 100_000


@st.composite
def truncated_wavs(draw):
    # fewer samples than the one STFT window detect-beats and tempo need, or a cut inside a sample
    end = draw(st.integers(0, WAV_HEADER + 2 * DEFAULT_STFT_WINDOW - 1))
    return draw(st.sampled_from(["detect-beats.wav", "tempo.wav"])), WAV[:end]


def _argv(kind, payload, tmp: Path) -> tuple:
    """The command line and environment that feed payload to its command."""
    (tmp / "poses.json").write_text(POSES)
    (tmp / "song.wav").write_bytes(WAV)
    (tmp / "beats.json").write_text(DOCUMENTS["beats"][0])
    (tmp / "tempo.json").write_text(DOCUMENTS["tempo"][0])
    (tmp / "data").mkdir()
    (tmp / "data" / "s.json").write_text(SAMPLE)
    bad = tmp / "bad"
    out = ["--output", str(tmp / "out.json")]
    good = {
        "extract-rhythm": ["extract-rhythm", "--poses", str(tmp / "poses.json")],
        "detect-beats": ["detect-beats", "--audio", str(tmp / "song.wav")],
        "tempo": ["tempo", "--audio", str(tmp / "song.wav")],
        "evaluate": ["evaluate", "--gen", str(tmp / "beats.json"), "--ref", str(tmp / "beats.json")],
        "train-toy": ["train-toy", "--data", str(tmp / "data"), "--epochs", "1"],
    }
    if kind == "flags":
        command, *flags = payload
        return [*good[command], *flags, *out], {}
    if kind == "seed":
        return ["gradcheck", *out], {ENV_SEED: payload}
    if kind == "usage":
        return list(payload), {}
    bad.write_bytes(payload)
    if kind.endswith(".wav"):  # "<command>.wav": a WAV for that command
        return [kind.removesuffix(".wav"), "--audio", str(bad), *out], {}
    if kind == "poses":
        return ["extract-rhythm", "--poses", str(bad), *out], {}
    if kind in ("beats", "rhythm"):
        return ["evaluate", "--gen", str(bad), "--ref", str(tmp / "beats.json"), *out], {}
    if kind == "tempo":
        tempo = ["--tempo-gen", str(tmp / "tempo.json"), "--tempo-ref", str(bad)]
        return [*good["evaluate"], *tempo, *out], {}
    bad.replace(tmp / "data" / "s.json")
    return [*good["train-toy"], *out], {}


BAD_INPUTS = st.one_of(
    bad_numbers(),
    corrupt_documents(),
    truncated_wavs(),
    st.tuples(st.just("flags"), st.sampled_from(BAD_FLAGS)),
    st.tuples(st.just("seed"), st.sampled_from(["", "x", "1.5", "nan", "0x10"])),
    st.tuples(st.just("usage"), st.sampled_from(USAGE_ERRORS)),
)


@given(BAD_INPUTS)
@settings(max_examples=200, deadline=None)
def test_bad_input_exits_2_with_one_error_line(case):
    kind, payload = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv, env = _argv(kind, payload, Path(tmp))
        with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, env):
            code = main(argv)
    message = one_error_line(code, out.getvalue(), err.getvalue())
    if kind in DOCUMENTS:  # a JSON input is refused while it is parsed, and named once
        named = Path(tmp) / ("data/s.json" if kind == "sample" else "bad")
        assert message.count(str(named)) == 1, message


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_error_exits_2_with_one_error_line(argv, capsys):
    one_error_line(main(argv), *capsys.readouterr())
