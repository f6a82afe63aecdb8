import argparse
import contextlib
import inspect
import json
import mmap
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from kinebeat import cli
from kinebeat.audio import BeatList, onset_envelope, read_wav
from kinebeat.cli import build_parser, main
from kinebeat.inversion import (
    ModelDims,
    TrainingConfig,
    gradcheck,
    make_teacher_student_dataset,
    sample_json_dict,
)
from kinebeat.metrics import aggregate_reports, match_beats
from kinebeat.pose import PoseSequence, serialize_pose_file
from kinebeat.rhythm import RhythmSequence

from conftest import (
    click_wav_bytes,
    one_error_line,
    pick_beats_loop,
    pose_from_xy,
    random_pose_frames,
    triangle_pose,
    wav_bytes,
)
from oracles import rhythm_bits_oracle


def write_dataset(path, n=8, seed=7):
    path.mkdir()
    ds = make_teacher_student_dataset(ModelDims(), "mlp", "regression", n, seed=seed, frozen_seed=1001)
    for i, sample in enumerate(ds):
        (path / f"sample{i:03d}.json").write_text(json.dumps(sample_json_dict(sample)))


class TestExtractRhythm:
    def test_stationary_fixture_all_zero(self, tmp_path, capsys):
        poses = tmp_path / "still.json"
        poses.write_bytes(serialize_pose_file(pose_from_xy(np.full((400, 2, 2), 3.0))))
        out = tmp_path / "still.rhythm.json"
        code = main(["extract-rhythm", "--poses", str(poses), "--clip", "none", "--output", str(out)])
        assert code == 0
        assert not RhythmSequence.from_json(out.read_bytes()).bits.any()

    def test_oscillator_beats_near_reversals(self, tmp_path):
        poses = tmp_path / "osc.json"
        poses.write_bytes(serialize_pose_file(triangle_pose(n_frames=480, half_period=30)))
        out = tmp_path / "osc.rhythm.json"
        code = main(["extract-rhythm", "--poses", str(poses), "--clip", "none", "--output", str(out)])
        assert code == 0
        beats = np.flatnonzero(RhythmSequence.from_json(out.read_bytes()).bits)
        assert len(beats) > 10
        reversals = np.arange(30, 460, 30)
        for b in beats:
            assert np.abs(reversals - b).min() <= 1

    def test_clipped_output_files(self, tmp_path):
        poses = tmp_path / "osc.json"
        poses.write_bytes(serialize_pose_file(triangle_pose(n_frames=700, half_period=30)))
        out = tmp_path / "osc.rhythm.json"
        code = main(["extract-rhythm", "--poses", str(poses), "--output", str(out)])
        assert code == 0
        clips = sorted(tmp_path.glob("osc.rhythm_clip*.json"))
        assert len(clips) == 700 // 307
        for clip in clips:
            assert len(RhythmSequence.from_json(clip.read_bytes()).bits) == 307

    def test_missing_file_exits_2(self, capsys):
        code = main(["extract-rhythm", "--poses", "/nonexistent.json"])
        line = one_error_line(code, *capsys.readouterr())
        assert line == "error: cannot read /nonexistent.json: No such file or directory"

    def test_unknown_flag_exits_2(self, capsys):
        code = main(["extract-rhythm", "--poses", "x.json", "--bogus"])
        assert one_error_line(code, *capsys.readouterr()) == "error: unrecognized arguments: --bogus"

    def test_take_shorter_than_one_clip_exits_2(self, tmp_path, capsys):
        poses = tmp_path / "short.json"
        poses.write_bytes(serialize_pose_file(triangle_pose(n_frames=306)))  # a 5.12 s clip is 307
        out = tmp_path / "short.rhythm.json"
        code = main(["extract-rhythm", "--poses", str(poses), "--output", str(out)])
        line = one_error_line(code, *capsys.readouterr())
        assert line == f"error: {poses}: input of 306 frames is shorter than one 5.12 s clip"
        assert list(tmp_path.iterdir()) == [poses]

    def test_failing_clip_is_named_and_nothing_is_written(self, tmp_path, capsys):
        frames = triangle_pose(n_frames=1228).frames.copy()  # four 307-frame clips
        frames[614:921, 0, 2] = 0.1  # joint 0 occluded for all of clip 2
        poses = tmp_path / "occluded.json"
        poses.write_bytes(serialize_pose_file(PoseSequence(60.0, frames)))
        code = main(["extract-rhythm", "--poses", str(poses), "--output", str(tmp_path / "out.json")])
        assert one_error_line(code, *capsys.readouterr()) == (
            f"error: {poses}: joint 0 has no frame with confidence >= 0.3 (clip 2, frames 614-920)")
        assert not list(tmp_path.glob("out*.json"))


class TestDetectBeats:
    def test_silence_fixture_empty(self, tmp_path, capsys):
        wav = tmp_path / "silence.wav"
        wav.write_bytes(wav_bytes(np.zeros(int(5.12 * 22050)), 22050))
        assert main(["detect-beats", "--audio", str(wav)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["beats_sec"] == []

    def test_click_fixture(self, tmp_path, capsys):
        wav = tmp_path / "clicks.wav"
        wav.write_bytes(click_wav_bytes(120, seconds=5.12))
        assert main(["detect-beats", "--audio", str(wav)]) == 0
        times = np.asarray(json.loads(capsys.readouterr().out)["beats_sec"])
        assert 10 <= len(times) <= 11
        assert np.abs(np.diff(times) - 0.5).max() <= 0.05

    def test_unsupported_codec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFFxxxxWAVEfmt ")
        line = one_error_line(main(["detect-beats", "--audio", str(bad)]), *capsys.readouterr())
        assert line == f"error: {bad}: cannot decode WAV: file ends inside a chunk header at byte 12"

    @pytest.mark.parametrize("command", ["detect-beats", "tempo"])
    def test_clip_shorter_than_one_window_names_the_wav(self, tmp_path, capsys, command):
        wav = tmp_path / "short.wav"
        wav.write_bytes(wav_bytes(np.zeros(500), 22050))  # an STFT window is 1024 samples
        line = one_error_line(main([command, "--audio", str(wav)]), *capsys.readouterr())
        assert line == f"error: {wav}: clip too short: 500 samples hold 0 full window(s)"


class TestEvaluate:
    def test_identical_files_score_one(self, tmp_path, capsys):
        beats = tmp_path / "beats.json"
        beats.write_bytes(BeatList(times=np.array([0.5, 1.0, 1.5])).to_json())
        assert main(["evaluate", "--gen", str(beats), "--ref", str(beats)]) == 0
        doc = json.loads(capsys.readouterr().out)
        report = doc["clips"][0]["report"]
        assert report["bcs"] == report["bhs"] == report["f1"] == 1.0

    def test_worked_pair(self, tmp_path, capsys):
        gen = tmp_path / "gen.json"
        ref = tmp_path / "ref.json"
        gen.write_bytes(BeatList(times=np.array([1.0, 2.0, 3.0])).to_json())
        ref.write_bytes(BeatList(times=np.array([1.1, 2.5])).to_json())
        assert main(["evaluate", "--gen", str(gen), "--ref", str(ref)]) == 0
        report = json.loads(capsys.readouterr().out)["clips"][0]["report"]
        assert report["f1"] == pytest.approx(0.4)
        assert report["b_a"] == 1

    def test_phase_align_recovers_shift(self, tmp_path, capsys):
        ref_times = np.arange(0.5, 5.0, 0.5)
        gen = tmp_path / "gen.json"
        ref = tmp_path / "ref.json"
        gen.write_bytes(BeatList(times=ref_times + 0.37).to_json())
        ref.write_bytes(BeatList(times=ref_times).to_json())
        assert main(["evaluate", "--gen", str(gen), "--ref", str(ref), "--phase-align"]) == 0
        doc = json.loads(capsys.readouterr().out)
        phase = doc["clips"][0]["phase_align"]
        assert abs(phase["offset"] - (-0.37)) <= 0.01 + 1e-12
        assert phase["report"]["f1"] == 1.0

    def test_rhythm_file_accepted_and_csv_summary(self, tmp_path, capsys):
        bits = np.zeros(120, dtype=int)
        bits[[30, 60, 90]] = 1
        r = tmp_path / "r.json"
        r.write_bytes(RhythmSequence(fps=60.0, bits=bits).to_json())
        b = tmp_path / "b.json"
        b.write_bytes(BeatList(times=np.array([0.5, 1.0, 1.5])).to_json())
        assert main(["evaluate", "--gen", str(r), "--ref", str(b), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("clip,")
        assert lines[-1].startswith("summary,")
        assert len(lines) == 3

    def test_csv_refuses_phase_align_and_tempo(self, tmp_path, capsys):
        # csv has no column for the offset or the tempo difference: exit 2, not drop them
        b = tmp_path / "b.json"
        b.write_bytes(BeatList(times=np.array([0.5, 1.0, 1.5])).to_json())
        tg = tmp_path / "tg.json"
        tr = tmp_path / "tr.json"
        tg.write_text('{"bpm": 120.0}')
        tr.write_text('{"bpm": 118.0}')
        tempo = ["--tempo-gen", str(tg), "--tempo-ref", str(tr)]
        for extra in (["--phase-align"], tempo, tempo + ["--phase-align"]):
            args = ["evaluate", "--gen", str(b), "--ref", str(b), "--format", "csv", *extra]
            line = one_error_line(main(args), *capsys.readouterr())
            assert line == "error: --phase-align, --tempo-gen and --tempo-ref need --format json"

    def test_lone_tempo_flag_refused_before_reading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        for flag in ("--tempo-gen", "--tempo-ref"):
            args = ["evaluate", "--gen", missing, "--ref", missing, flag, missing]
            line = one_error_line(main(args), *capsys.readouterr())
            assert line == "error: --tempo-gen and --tempo-ref must be given together"

    def test_each_input_is_parsed_once(self, tmp_path, monkeypatch, capsys):
        bits = np.zeros(120, dtype=int)
        bits[[30, 60, 90]] = 1
        r = tmp_path / "r.json"
        r.write_bytes(RhythmSequence(fps=60.0, bits=bits).to_json())
        b = tmp_path / "b.json"
        b.write_bytes(BeatList(times=np.array([0.5, 1.0, 1.5])).to_json())
        parsed = []
        loads = json.loads

        def counting(*args, **kwargs):
            parsed.append(args[0])
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        assert main(["evaluate", "--gen", str(b), "--ref", str(r)]) == 0
        assert len(parsed) == 2
        monkeypatch.undo()
        assert json.loads(capsys.readouterr().out)["clips"][0]["report"]["f1"] == 1.0

    def test_tempo_difference_included(self, tmp_path, capsys):
        beats = tmp_path / "beats.json"
        beats.write_bytes(BeatList(times=np.array([1.0])).to_json())
        tg = tmp_path / "tg.json"
        tr = tmp_path / "tr.json"
        tg.write_text('{"bpm": 120.0}')
        tr.write_text('{"bpm": 104.0}')
        assert main([
            "evaluate", "--gen", str(beats), "--ref", str(beats),
            "--tempo-gen", str(tg), "--tempo-ref", str(tr),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tempo_difference_bpm"] == 16.0

    def test_multi_pair_summary_is_the_aggregate_of_the_clips(self, tmp_path, capsys):
        pairs = [([0.5, 1.0, 1.5, 2.0], [0.52, 1.2, 1.49]), ([0.3, 0.9], [0.31, 0.95, 1.6])]
        files = {"gen": [], "ref": []}
        for i, pair in enumerate(pairs):
            for side, times in zip(files, pair):
                path = tmp_path / f"{side}{i}.json"
                path.write_bytes(BeatList(times=np.array(times)).to_json())
                files[side].append(str(path))
        assert main(["evaluate", "--gen", *files["gen"], "--ref", *files["ref"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        reports = [match_beats(BeatList(times=np.array(g)), BeatList(times=np.array(r))) for g, r in pairs]
        expected = json.loads(json.dumps({"clips": [r.to_json_dict() for r in reports],
                                          "summary": aggregate_reports(reports).to_json_dict()}))
        assert [clip["report"] for clip in doc["clips"]] == expected["clips"]
        assert doc["summary"] == expected["summary"]
        assert doc["summary"]["n_clips"] == 2

    def test_unpaired_gen_and_ref_lists_exit_2(self, tmp_path, capsys):
        beats = tmp_path / "beats.json"
        beats.write_bytes(BeatList(times=np.array([0.5, 1.0])).to_json())
        code = main(["evaluate", "--gen", str(beats), str(beats), "--ref", str(beats)])
        line = one_error_line(code, *capsys.readouterr())
        assert line == "error: got 2 generated and 1 reference files; need pairs"

    @pytest.mark.parametrize("text", ['{"bpm": 120.0}', "[0.5, 1.0]", '"beats_sec"'])
    def test_neither_beats_nor_rhythm_exits_2(self, tmp_path, capsys, text):
        beats = tmp_path / "beats.json"
        beats.write_bytes(BeatList(times=np.array([0.5, 1.0])).to_json())
        other = tmp_path / "other.json"
        other.write_text(text)
        code = main(["evaluate", "--gen", str(beats), "--ref", str(other)])
        line = one_error_line(code, *capsys.readouterr())
        assert line == f'error: {other}: expected "beats_sec" or a rhythm file with "bits"'

    def test_unparseable_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        line = one_error_line(main(["evaluate", "--gen", str(bad), "--ref", str(bad)]), *capsys.readouterr())
        assert line.startswith(f"error: {bad}: malformed JSON: ")

    def test_error_names_the_bad_file_among_several(self, tmp_path, capsys):
        good = tmp_path / "a.json"
        good.write_bytes(BeatList(times=np.array([0.5, 1.0])).to_json())
        bad = tmp_path / "b.json"
        bad.write_text('{"beats_sec": [1.0, 0.5]}')
        code = main(["evaluate", "--gen", str(good), str(bad), "--ref", str(good), str(good)])
        line = one_error_line(code, *capsys.readouterr())
        assert line == f"error: {bad}: beat times must be strictly ascending"

    def test_error_names_a_bad_tempo_ref(self, tmp_path, capsys):
        beats = tmp_path / "beats.json"
        beats.write_bytes(BeatList(times=np.array([1.0])).to_json())
        tg = tmp_path / "tg.json"
        tg.write_text('{"bpm": 120.0}')
        tr = tmp_path / "tr.json"
        tr.write_text('{"bpm": -1}')
        code = main(["evaluate", "--gen", str(beats), "--ref", str(beats),
                     "--tempo-gen", str(tg), "--tempo-ref", str(tr)])
        line = one_error_line(code, *capsys.readouterr())
        assert line == f"error: {tr}: bpm must be a positive finite number, got -1"

    def test_unreadable_file_named_once(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main(["evaluate", "--gen", str(missing), "--ref", str(missing)])
        line = one_error_line(code, *capsys.readouterr())
        assert line.startswith(f"error: cannot read {missing}: ") and line.count(str(missing)) == 1


class TestTempo:
    @pytest.mark.parametrize("bpm", [120, 90])
    def test_click_fixture(self, tmp_path, capsys, bpm):
        wav = tmp_path / "clicks.wav"
        wav.write_bytes(click_wav_bytes(bpm, seconds=5.12))
        assert main(["tempo", "--audio", str(wav)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["bpm"] - bpm) <= 1.0

    def test_silence_exits_2(self, tmp_path, capsys):
        wav = tmp_path / "silence.wav"
        wav.write_bytes(wav_bytes(np.zeros(22050 * 2), 22050))
        line = one_error_line(main(["tempo", "--audio", str(wav)]), *capsys.readouterr())
        assert line == f"error: {wav}: no periodicity above threshold: envelope is constant"

    def test_one_click_exits_2_with_one_line(self, tmp_path, capsys):
        samples = np.zeros(22050 * 5)
        samples[22050 * 2] = 0.9  # no lag of its envelope correlates positively
        wav = tmp_path / "click.wav"
        wav.write_bytes(wav_bytes(samples, 22050))
        line = one_error_line(main(["tempo", "--audio", str(wav)]), *capsys.readouterr())
        assert line == f"error: {wav}: no periodicity above threshold: autocorrelation has no positive peak"


class TestTrainToy:
    def test_teacher_student_defaults(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_dataset(data)
        out = tmp_path / "ckpt.json"
        code = main(["train-toy", "--data", str(data), "--seed", "7", "--output", str(out)])
        assert code == 0
        losses = (tmp_path / "ckpt_loss.csv").read_text().strip().splitlines()[1:]
        first = float(losses[0].split(",")[1])
        last = float(losses[-1].split(",")[1])
        assert last <= 0.1 * first
        doc = json.loads(out.read_text())
        assert set(doc["frozen_digests"]) == {"embedding_table", "generator"}

    def test_zero_epochs_equals_initialization(self, tmp_path):
        data = tmp_path / "data"
        write_dataset(data, n=4)
        a = tmp_path / "a.json"
        code = main(["train-toy", "--data", str(data), "--epochs", "0", "--seed", "3",
                     "--output", str(a)])
        assert code == 0
        doc = json.loads(a.read_text())
        from kinebeat.inversion import init_encoder_params

        init = init_encoder_params(ModelDims(), "mlp", 3)
        for name, block in init.blocks().items():
            np.testing.assert_array_equal(np.asarray(doc["params"][name]), block)

    def test_same_seed_is_bitwise_identical(self, tmp_path):
        data = tmp_path / "data"
        write_dataset(data, n=4)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["train-toy", "--data", str(data), "--epochs", "40", "--seed", "11"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_defaults_to_the_training_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv("KINEBEAT_SEED", raising=False)
        data = tmp_path / "data"
        write_dataset(data, n=2)
        out = tmp_path / "ckpt.json"
        assert main(["train-toy", "--data", str(data), "--epochs", "1", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == TrainingConfig().seed

    def test_empty_dir_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        line = one_error_line(main(["train-toy", "--data", str(data)]), *capsys.readouterr())
        assert line == f"error: no *.json samples found in {data}"

    @pytest.mark.parametrize("text", [
        pytest.param("[1, 2]", id="top-level-list"),
        pytest.param("{broken", id="not-json"),
        pytest.param('{"genre": %(genre)s, "target": [0.5]}', id="no-rhythm"),
        pytest.param('{"rhythm": [0, 1], "genre": %(genre)s, "target": [0.5]}', id="rhythm-list"),
        pytest.param('{"rhythm": {"fps": 60}, "genre": %(genre)s, "target": [0.5]}', id="no-bits"),
        pytest.param('{"rhythm": {"bits": "0101"}, "genre": %(genre)s, "target": [0.5]}',
                     id="bits-string"),
        pytest.param('{"rhythm": {"bits": [[0, 1]]}, "genre": %(genre)s, "target": [0.5]}',
                     id="bits-nested"),
        pytest.param('{"rhythm": {"bits": [true]}, "genre": %(genre)s, "target": [0.5]}',
                     id="bits-bool"),
        pytest.param('{"rhythm": {"bits": [0, 1]}, "genre": 3, "target": [0.5]}', id="genre-number"),
        pytest.param('{"rhythm": {"bits": [0, 1]}, "genre": [1%(huge)s], "target": [0.5]}',
                     id="genre-huge-int"),
        pytest.param('{"rhythm": {"bits": [0, 1]}, "genre": %(genre)s}', id="no-target"),
        pytest.param('{"rhythm": {"bits": [0, 1]}, "genre": %(genre)s, "target": ["a"]}',
                     id="target-string"),
        pytest.param('{"rhythm": {"bits": [0, 3]}, "genre": %(genre)s, "target": [0.5]}',
                     id="bit-above-one"),
        pytest.param('{"rhythm": {"bits": [0, 1]}, "genre": [2, 0, 0, 0, 0, 0, 0, 0, 0, 0], '
                     '"target": [0.5]}', id="genre-not-one-hot"),
        pytest.param('{"rhythm": {"bits": [0, 1]}, "genre": %(genre)s, "target": [0.5]}',
                     id="target-wrong-width"),
    ])
    def test_malformed_sample_exits_2(self, tmp_path, capsys, text):
        data = tmp_path / "data"
        data.mkdir()
        genre = json.dumps([1] + [0] * (ModelDims().n_genres - 1))
        (data / "s.json").write_text(text % {"genre": genre, "huge": "0" * 400})
        out = tmp_path / "ckpt.json"
        code = main(["train-toy", "--data", str(data), "--epochs", "1", "--output", str(out)])
        assert "s.json" in one_error_line(code, *capsys.readouterr())

    @pytest.mark.parametrize("fps", ['"abc"', "-1", "true", "0", "NaN"])
    def test_bad_rhythm_fps_exits_2(self, tmp_path, capsys, fps):
        """A sample's "rhythm.fps" is optional, but where given it is a positive number."""
        data = tmp_path / "data"
        write_dataset(data, n=2)
        path = data / "sample001.json"
        doc = json.loads(path.read_text())
        del doc["rhythm"]["fps"]
        path.write_text(json.dumps(doc))  # a sample without "fps" stays valid
        args = ["train-toy", "--data", str(data), "--epochs", "1",
                "--output", str(tmp_path / "ckpt.json")]
        assert main(args) == 0
        capsys.readouterr()
        doc["rhythm"]["fps"] = "#"
        path.write_text(json.dumps(doc).replace('"#"', fps))
        line = one_error_line(main(args), *capsys.readouterr())
        assert "sample001.json" in line and '"rhythm.fps"' in line

    @pytest.mark.parametrize("target", [[], [1.7]])
    def test_bad_token_ids_exit_2(self, tmp_path, capsys, target):
        data = tmp_path / "data"
        data.mkdir()
        genre = [1] + [0] * (ModelDims().n_genres - 1)
        doc = {"rhythm": {"fps": 60, "bits": [0, 1, 0]}, "genre": genre, "target": target}
        (data / "s.json").write_text(json.dumps(doc))
        args = ["train-toy", "--data", str(data), "--mode", "categorical", "--epochs", "1",
                "--output", str(tmp_path / "ckpt.json")]
        assert "token ids" in one_error_line(main(args), *capsys.readouterr())
        doc["target"] = [1.0]  # an integral float is a token id
        (data / "s.json").write_text(json.dumps(doc))
        assert main(args) == 0


    def test_nan_target_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_dataset(data, n=2)
        path = data / "sample000.json"
        # Python's json reads the NaN literal, so the sample parses
        path.write_text(path.read_text().replace('"target": [', '"target": [NaN, ', 1))
        args = ["train-toy", "--data", str(data), "--epochs", "1",
                "--output", str(tmp_path / "ckpt.json")]
        line = one_error_line(main(args), *capsys.readouterr())
        assert "sample000.json" in line and "finite" in line

    def test_divergent_lr_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_dataset(data, n=4)
        args = ["train-toy", "--data", str(data), "--lr", "1e6", "--epochs", "50",
                "--output", str(tmp_path / "ckpt.json")]
        line = one_error_line(main(args), *capsys.readouterr())
        assert line.startswith("error: training diverged at epoch")
        assert not (tmp_path / "ckpt.json").exists()


class TestDeeplyNestedJson:
    """100 000 nested arrays exceed the JSON parser's recursion limit."""

    NESTED = "[" * 100_000

    def test_train_toy(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "s.json").write_text(self.NESTED)
        code = main(["train-toy", "--data", str(data), "--output", str(tmp_path / "c.json")])
        assert one_error_line(code, *capsys.readouterr()).startswith(f"error: {data / 's.json'}: ")

    def test_extract_rhythm(self, tmp_path, capsys):
        poses = tmp_path / "poses.json"
        poses.write_text(self.NESTED)
        code = main(["extract-rhythm", "--poses", str(poses), "--output", str(tmp_path / "r.json")])
        assert one_error_line(code, *capsys.readouterr()).startswith(f"error: {poses}: ")

    def test_evaluate_beats(self, tmp_path, capsys):
        bad = tmp_path / "beats.json"
        bad.write_text(self.NESTED)
        code = main(["evaluate", "--gen", str(bad), "--ref", str(bad)])
        assert one_error_line(code, *capsys.readouterr()).startswith(f"error: {bad}: ")

    def test_evaluate_tempo(self, tmp_path, capsys):
        beats = tmp_path / "beats.json"
        beats.write_bytes(BeatList(times=np.array([0.5, 1.0])).to_json())
        bad = tmp_path / "tempo_gen.json"
        bad.write_text(self.NESTED)
        ref = tmp_path / "tempo_ref.json"
        ref.write_text('{"bpm": 120.0}')
        code = main(["evaluate", "--gen", str(beats), "--ref", str(beats),
                     "--tempo-gen", str(bad), "--tempo-ref", str(ref)])
        assert one_error_line(code, *capsys.readouterr()).startswith(f"error: {bad}: ")


class TestPeakWindowFlags:
    """extract-rhythm --window and detect-beats --peak-window go through one check, which a huge
    finite window passes (their refusals are in TestBadNumericFlags)."""

    def test_huge_window_matches_oracle(self, tmp_path, rng):
        frames = random_pose_frames(rng, 60, 3)
        poses = tmp_path / "poses.json"
        poses.write_bytes(serialize_pose_file(PoseSequence(60.0, frames)))
        out = tmp_path / "r.json"
        args = ["extract-rhythm", "--poses", str(poses), "--window", "1e9", "--conf-threshold", "0",
                "--clip", "none", "--output", str(out)]
        assert main(args) == 0
        expected = rhythm_bits_oracle(frames.tolist(), 60.0, 8, 1e9, 0.0, 0.05)
        assert RhythmSequence.from_json(out.read_bytes()).bits.tolist() == expected

    def test_huge_peak_window_matches_reference_loop(self, tmp_path, capsys):
        wav = tmp_path / "clicks.wav"
        wav.write_bytes(click_wav_bytes(120, seconds=2.0))
        assert main(["detect-beats", "--audio", str(wav), "--peak-window", "1e9"]) == 0
        env = onset_envelope(read_wav(wav.read_bytes()))
        expected = pick_beats_loop(env.values, env.frame_rate, 1e9, 0.1)
        assert json.loads(capsys.readouterr().out)["beats_sec"] == expected.tolist()


HUGE = "1" + "0" * 400  # a JSON integer too large for a float


class TestBadJsonNumbers:
    """Each bad document exits 2 with one error line; a parse error names the file."""

    @pytest.mark.parametrize("kind, text, message", [
        pytest.param("poses", '{"fps": 60, "frames": [[[%s, 0, 1]], [[0, 0, 1]], [[0, 0, 1]]]}' % HUGE,
                     "bad.json: keypoint value at frame 0 is too large: int too large to convert to float",
                     id="pose-coordinate-huge"),
        pytest.param("poses", '{"fps": %s, "frames": [[[0, 0, 1]], [[1, 0, 1]], [[0, 0, 1]]]}' % HUGE,
                     "bad.json: fps is too large: int too large to convert to float", id="pose-fps-huge"),
        pytest.param("beats", '{"beats_sec": [0.5, %s]}' % HUGE,
                     'bad.json: "beats_sec": int too large to convert to float', id="beats-huge"),
        pytest.param("beats", '{"beats_sec": {"a": 1}}',
                     'bad.json: beats JSON must be an object with a "beats_sec" list', id="beats-object"),
        pytest.param("beats", '{"fps": %s, "bits": [0, 0, 1]}' % HUGE,
                     "bad.json: fps is too large: int too large to convert to float", id="rhythm-fps-huge"),
        pytest.param("beats", '{"fps": true, "bits": [0, 0, 1]}', "bad.json: fps must be a number, got True",
                     id="rhythm-fps-bool"),
        pytest.param("beats", '{"fps": 60, "bits": [false, false, true, false, true]}',
                     'bad.json: "bits" must be a list of numbers', id="rhythm-bits-bool"),
        pytest.param("tempo", '{"bpm": %s}' % HUGE,
                     "bad.json: bpm is too large: int too large to convert to float", id="bpm-huge"),
        pytest.param("tempo", '{"bpm": [1]}', "bad.json: bpm must be a number, got [1]", id="bpm-list"),
        pytest.param("tempo", '{"bpm": null}', "bad.json: bpm must be a number, got None", id="bpm-null"),
        pytest.param("tempo", '{"bpm": "120"}', "bad.json: bpm must be a number, got '120'", id="bpm-string"),
        pytest.param("poses", '{"fps": 1, "frames": [[[1e200, 0, 1]]%s]}' % (", [[0, 0, 1]]" * 4),
                     "bad.json: speeds must be finite and nonnegative (clip 0, frames 0-4)",
                     id="pose-speed-overflow"),
        pytest.param("poses", '{"fps": 1, "frames": [[[1e308, 0, 1]], [[-1e308, 0, 1]]%s]}'
                     % (", [[0, 0, 1]]" * 3), "bad.json: velocity values must be finite (clip 0, frames 0-4)",
                     id="pose-velocity-overflow"),
        pytest.param("whole", '{"fps": 1, "frames": [[[1e308, 0, 1]], [[-1e308, 0, 1]]%s]}'
                     % (", [[0, 0, 1]]" * 3), "bad.json: velocity values must be finite",
                     id="pose-velocity-overflow-whole-take"),
        pytest.param("beats", '{"fps": 1e-320, "bits": [0, 0, 1]}',
                     "bad.json: beat times must be finite and nonnegative", id="rhythm-beat-time-overflow"),
        pytest.param("beats", '{"fps": 60, "bits": [0, 0, 2]}', "bad.json: bits must be 0 or 1",
                     id="rhythm-bit-not-binary"),
        pytest.param("beats", '{"fps": 60, "bits": [1, 0, 0]}',
                     "bad.json: bits 0 and 1 must be 0; acceleration is undefined there",
                     id="rhythm-leading-bit-set"),
        pytest.param("beats", '{"fps": 60, "bits": [0, 0]}', "bad.json: need at least 3 bits, got 2",
                     id="rhythm-too-few-bits"),
        pytest.param("tempo", "{}", 'bad.json: tempo JSON must be an object with "bpm"', id="tempo-no-bpm"),
        pytest.param("poses", '{"frames": []}',
                     'bad.json: keypoint JSON must be an object with "fps" and "frames"', id="pose-no-fps"),
        pytest.param("poses", '{"fps": 60, "frames": [[[true, 0, 1]], [[0, 0, 1]], [[0, 0, 1]]]}',
                     "bad.json: keypoint value at frame 0 must be a number, got True", id="pose-bool"),
        pytest.param("poses", '{"fps": 60, "frames": [[[0, 0, 1]], 5, [[0, 0, 1]]]}',
                     "bad.json: frame 1 is not a list of keypoints", id="pose-frame-not-a-list"),
        pytest.param("poses", '{"fps": 60, "frames": [[[0, 0, 1]], [[NaN, 0, 1]], [[0, 0, 1]]]}',
                     "bad.json: non-finite coordinate at frame 1", id="pose-nan-literal"),
        pytest.param("poses", '{"fps": 60, "frames": [[[0, 0, 1]], [[0, 0, Infinity]], [[0, 0, 1]]]}',
                     "bad.json: confidence out of [0, 1] at frame 1", id="pose-infinity-confidence"),
        pytest.param("poses", '{"fps": NaN, "frames": [[[0, 0, 1]], [[1, 0, 1]], [[0, 0, 1]]]}',
                     "bad.json: fps must be a positive finite number, got nan", id="pose-fps-nan"),
        pytest.param("ref", '{"bits": [0, 0, 1, 0]}',
                     'bad.json: rhythm JSON must be an object with "fps" and "bits"', id="rhythm-no-fps"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exits_2(self, tmp_path, capsys, kind, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        beats = tmp_path / "beats.json"
        beats.write_bytes(BeatList(times=np.array([0.5, 1.0])).to_json())
        tempo = tmp_path / "tempo.json"
        tempo.write_text('{"bpm": 120.0}')
        args = {
            "poses": ["extract-rhythm", "--poses", str(bad), "--output", str(tmp_path / "r.json")],
            "whole": ["extract-rhythm", "--poses", str(bad), "--clip", "none",
                      "--output", str(tmp_path / "r.json")],
            "beats": ["evaluate", "--gen", str(bad), "--ref", str(beats)],
            "ref": ["evaluate", "--gen", str(beats), "--ref", str(bad)],
            "tempo": ["evaluate", "--gen", str(beats), "--ref", str(beats),
                      "--tempo-gen", str(bad), "--tempo-ref", str(tempo)],
        }[kind]
        assert one_error_line(main(args), *capsys.readouterr()).endswith(message)


@contextlib.contextmanager
def fifo_holding(tmp_path, data):
    """A named pipe that a child process fills with data once a reader opens it."""
    source, fifo = tmp_path / "fifo.source", tmp_path / "fifo"
    source.write_bytes(data)
    os.mkfifo(fifo)
    copy = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
    writer = subprocess.Popen([sys.executable, "-c", copy, str(source), str(fifo)])
    try:
        yield fifo
        assert writer.wait(timeout=60) == 0
    finally:
        writer.kill()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
class TestReadFile:
    """_read_file maps a regular, non-empty file read-only and reads what mmap refuses."""

    @pytest.mark.parametrize("kind", ["regular", "empty", "fifo"])
    def test_a_regular_file_is_mapped_and_anything_else_read(self, tmp_path, kind):
        data = b"" if kind == "empty" else b'{"bpm": 120.0}'
        path = tmp_path / "in.json"
        path.write_bytes(data)
        with fifo_holding(tmp_path, data) if kind == "fifo" else contextlib.nullcontext(path) as source:
            contents = cli._read_file(str(source))
        assert contents[:] == data
        assert isinstance(contents, mmap.mmap if kind == "regular" else bytes)
        if kind == "regular":
            with pytest.raises(TypeError):
                contents[0] = 0

    @pytest.mark.parametrize("command", ["detect-beats", "extract-rhythm"])
    def test_a_command_reads_a_fifo(self, tmp_path, capsys, command):
        if command == "detect-beats":
            data, flags = click_wav_bytes(120, seconds=5.12), ["--audio"]
        else:
            data, flags = serialize_pose_file(triangle_pose(n_frames=400)), ["--clip", "none", "--poses"]
        regular = tmp_path / "regular"
        regular.write_bytes(data)
        outputs = []
        for source in (regular, None):
            with fifo_holding(tmp_path, data) if source is None else contextlib.nullcontext(source) as path:
                out = tmp_path / f"out{len(outputs)}.json"
                assert main([command, *flags, str(path), "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_calls_leave_no_file_open(self, tmp_path, capsys):
        song, poses = tmp_path / "song.wav", tmp_path / "dance.json"
        song.write_bytes(click_wav_bytes(120, seconds=2.0))
        poses.write_bytes(serialize_pose_file(triangle_pose(n_frames=120)))
        nan = tmp_path / "nan.wav"
        nan.write_bytes(wav_bytes(np.full(4096, np.nan), 22050, fmt="float32"))
        calls = [  # each with its error line, or None for a success
            (["detect-beats", "--audio", str(song)], None),
            (["extract-rhythm", "--poses", str(poses), "--clip", "none", "--output",
              str(tmp_path / "r.json")], None),
            # the mapping outlives a raise in read_wav
            (["detect-beats", "--audio", str(nan)],
             f"error: {nan}: cannot decode WAV: NaN sample in frame 0"),
        ]
        open_fds = len(os.listdir("/proc/self/fd"))
        for i in range(50):
            argv, error = calls[i % len(calls)]
            code = main(argv)
            out, err = capsys.readouterr()
            if error is None:
                assert code == 0 and err == ""
            else:
                assert one_error_line(code, out, err) == error
        assert len(os.listdir("/proc/self/fd")) == open_fds


WINDOW = "window must be positive and finite in frames, got"
POSITIVE_BPM = "need 0 < bpm_min < bpm_max, got"


class TestBadNumericFlags:
    """A bad numeric flag exits 2 with one line, not 0 or a traceback. A value that no input can
    make valid is refused before any file is read, by a line that names no file and no clip; a
    value that only the input's rate makes invalid is refused with the file's name."""

    @pytest.mark.parametrize("command, flags, message", [
        pytest.param("extract-rhythm", ["--clip", "1e308"],
                     "{path}: clip of 1e+308 s at 60.0 fps is not a finite frame count",
                     id="clip-frames-overflow"),
        pytest.param("extract-rhythm", ["--window", "1e308"],
                     f"{{path}}: {WINDOW} 1e+308 s (clip 0, frames 0-306)", id="window-frames-overflow"),
        pytest.param("detect-beats", ["--peak-window", "1e308"], f"{{path}}: {WINDOW} 1e+308 s",
                     id="peak-window-frames-overflow"),
        pytest.param("tempo", ["--bpm-min", "1e-320"],
                     "{path}: the longest lag at 1e-320 BPM and 86.13 Hz is not finite",
                     id="bpm-min-lag-overflow"),
        pytest.param("tempo", ["--bpm-min", "200", "--bpm-max", "201"],
                     "{path}: no integer lag lies in [200.0, 201.0] BPM at 86.13 Hz",
                     id="bpm-range-without-lag"),
    ])
    def test_exits_2(self, tmp_path, capsys, command, flags, message):
        if command == "extract-rhythm":
            path = tmp_path / "osc.json"
            path.write_bytes(serialize_pose_file(triangle_pose(n_frames=700, half_period=30)))
            source = ["--poses", str(path)]
        else:
            path = tmp_path / "clicks.wav"
            path.write_bytes(click_wav_bytes(120, seconds=3.0))
            source = ["--audio", str(path)]
        code = main([command, *source, *flags, "--output", str(tmp_path / "out.json")])
        assert one_error_line(code, *capsys.readouterr()) == "error: " + message.format(path=path)
        assert not list(tmp_path.glob("out*.json"))

    @pytest.mark.parametrize("command, flags, message", [
        pytest.param("extract-rhythm", ["--conf-threshold", "2"], "threshold must be in [0, 1], got 2.0",
                     id="conf-threshold-above-one"),
        pytest.param("extract-rhythm", ["--conf-threshold", "-0.5"], "threshold must be in [0, 1], got -0.5",
                     id="conf-threshold-negative"),
        pytest.param("extract-rhythm", ["--conf-threshold", "nan"], "threshold must be in [0, 1], got nan",
                     id="conf-threshold-nan"),
        pytest.param("extract-rhythm", ["--bins", "1"], "need at least 2 direction bins, got 1",
                     id="bins-below-two"),
        pytest.param("extract-rhythm", ["--bins", "1" + "0" * 20],
                     "direction bins must fit in int64, got 100000000000000000000", id="bins-overflow"),
        pytest.param("extract-rhythm", ["--min-value", "-1"], "thresholds must be nonnegative",
                     id="min-value-negative"),
        pytest.param("extract-rhythm", ["--min-value", "nan"], "thresholds must be nonnegative",
                     id="min-value-nan"),
        pytest.param("extract-rhythm", ["--min-rel", "-0.1"], "thresholds must be nonnegative",
                     id="min-rel-negative"),
        pytest.param("extract-rhythm", ["--min-rel", "nan"], "thresholds must be nonnegative",
                     id="min-rel-nan"),
        pytest.param("detect-beats", ["--delta", "-1"], "delta must be nonnegative, got -1.0",
                     id="delta-negative"),
        pytest.param("detect-beats", ["--delta", "nan"], "delta must be nonnegative, got nan",
                     id="delta-nan"),
        pytest.param("extract-rhythm", ["--window", "0"], f"{WINDOW} 0.0 s", id="window-zero"),
        pytest.param("extract-rhythm", ["--window", "-0.3"], f"{WINDOW} -0.3 s", id="window-negative"),
        pytest.param("extract-rhythm", ["--window", "inf"], f"{WINDOW} inf s", id="window-infinite"),
        pytest.param("extract-rhythm", ["--window", "nan"], f"{WINDOW} nan s", id="window-nan"),
        pytest.param("detect-beats", ["--peak-window", "0"], f"{WINDOW} 0.0 s", id="peak-window-zero"),
        pytest.param("detect-beats", ["--peak-window=-inf"], f"{WINDOW} -inf s", id="peak-window-negative"),
        pytest.param("detect-beats", ["--peak-window", "inf"], f"{WINDOW} inf s", id="peak-window-infinite"),
        pytest.param("detect-beats", ["--stft-window", "256", "--stft-hop", "512"],
                     "need window >= hop >= 1, got window=256, hop=512", id="stft-window-below-hop"),
        pytest.param("tempo", ["--stft-window", "256", "--stft-hop", "512"],
                     "need window >= hop >= 1, got window=256, hop=512", id="tempo-stft-window-below-hop"),
        pytest.param("detect-beats", ["--stft-hop", "0"], "need window >= hop >= 1, got window=1024, hop=0",
                     id="stft-hop-zero"),
        pytest.param("tempo", ["--bpm-min", "100", "--bpm-max", "90"], f"{POSITIVE_BPM} 100.0, 90.0",
                     id="bpm-min-above-max"),
        pytest.param("tempo", ["--bpm-min", "120", "--bpm-max", "120"], f"{POSITIVE_BPM} 120.0, 120.0",
                     id="bpm-min-equals-max"),
        pytest.param("tempo", ["--bpm-min", "0"], f"{POSITIVE_BPM} 0.0, 180.0", id="bpm-min-zero"),
        pytest.param("tempo", ["--bpm-min", "-60"], f"{POSITIVE_BPM} -60.0, 180.0", id="bpm-min-negative"),
        pytest.param("tempo", ["--bpm-min", "nan"], f"{POSITIVE_BPM} nan, 180.0", id="bpm-min-nan"),
        pytest.param("evaluate", ["--tolerance", "0"], "tolerance must be positive, got 0.0",
                     id="tolerance-zero"),
        pytest.param("evaluate", ["--tolerance", "-0.2"], "tolerance must be positive, got -0.2",
                     id="tolerance-negative"),
        pytest.param("evaluate", ["--tolerance", "nan"], "tolerance must be positive, got nan",
                     id="tolerance-nan"),
        pytest.param("extract-rhythm", ["--clip", "abc"],
                     """--clip must be a number of seconds or "none", got 'abc'""", id="clip-not-a-number"),
        pytest.param("extract-rhythm", ["--clip", "0"],
                     "clip duration must be a positive finite number, got 0.0", id="clip-zero"),
    ])
    def test_refused_before_any_file_is_read(self, tmp_path, monkeypatch, capsys, command, flags, message):
        read = []
        monkeypatch.setattr(cli, "_read_file", lambda path: read.append(path))
        source = {"extract-rhythm": ["--poses", "take.json"], "detect-beats": ["--audio", "song.wav"],
                  "tempo": ["--audio", "song.wav"], "evaluate": ["--gen", "gen.json", "--ref", "ref.json"]}
        code = main([command, *source[command], *flags, "--output", str(tmp_path / "out.json")])
        assert one_error_line(code, *capsys.readouterr()) == f"error: {message}"
        assert read == []
        assert not list(tmp_path.glob("out*.json"))


# Runs main in a child whose address space may grow by HEADROOM beyond its size after import.
# The limit is set on the child alone (setrlimit on itself), after its imports.
LIMITED_MAIN = """
import resource, sys
import kinebeat.cli
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(kinebeat.cli.main(sys.argv[2:]))
"""
# writes 128 MB of zeros to stdout, 1 MB at a time
ZEROS = "import os\nfor _ in range(128):\n    os.write(1, bytes(1 << 20))"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
class TestOutOfMemory:
    """An input too large for the memory left exits 2 with one line naming it, as bad input does."""

    HEADROOM = 64 << 20

    @pytest.mark.parametrize("source", ["poses", "wav", "pipe"])
    def test_exits_2_with_one_line_naming_the_file(self, tmp_path, source):
        writer = None
        if source == "poses":  # 32 MB of JSON; its parsed lists take over 150 MB
            path, argv = tmp_path / "take.json", ["extract-rhythm", "--poses"]
            frame = "[" + ", ".join(["[1.5, 2.5, 1.0]"] * 17) + "]"
            path.write_text('{"fps": 60, "frames": [' + ", ".join([frame] * 110_000) + "]}")
        elif source == "wav":  # 32 MB of 16-bit silence, decoded to 128 MB of float64 samples
            path, argv, size = tmp_path / "song.wav", ["detect-beats", "--audio"], 32 << 20
            with open(path, "wb") as wav:  # the samples are the file's sparse tail of zeros
                wav.write(b"RIFF" + struct.pack("<I", 36 + size) + b"WAVEfmt "
                          + struct.pack("<IHHIIHH", 16, 1, 1, 22050, 44100, 2, 16) + b"data"
                          + struct.pack("<I", size))
                wav.truncate(44 + size)
        else:  # a pipe cannot be mapped, so it is read whole: 128 MB
            path, argv = "/dev/stdin", ["extract-rhythm", "--poses"]
            writer = subprocess.Popen([sys.executable, "-c", ZEROS], stdout=subprocess.PIPE,
                                      stderr=subprocess.DEVNULL)
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        try:
            proc = subprocess.run([sys.executable, "-c", LIMITED_MAIN, str(self.HEADROOM), *argv, str(path),
                                   "--output", str(tmp_path / "out.json")],
                                  stdin=writer.stdout if writer else None, env=env, capture_output=True,
                                  text=True, timeout=120)
        finally:
            if writer is not None:
                writer.kill()
                writer.wait(timeout=60)
                writer.stdout.close()
        line = one_error_line(proc.returncode, proc.stdout, proc.stderr)
        assert line == f"error: {path}: out of memory"
        assert not list(tmp_path.glob("out*.json"))

    def test_outside_a_file_names_the_command(self, tmp_path, monkeypatch, capsys):
        wav = tmp_path / "clicks.wav"
        wav.write_bytes(click_wav_bytes(120, seconds=2.0))

        def no_memory(self):
            raise MemoryError

        monkeypatch.setattr(BeatList, "to_json", no_memory)
        line = one_error_line(main(["detect-beats", "--audio", str(wav)]), *capsys.readouterr())
        assert line == "error: out of memory in detect-beats"


# Runs main in a child and prints its peak resident set (VmHWM, bytes) after import and after main.
PEAK_MAIN = """
import sys
import kinebeat.cli

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))

after_import = peak()
code = kinebeat.cli.main(sys.argv[1:])
print(code, after_import, peak())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
class TestMemoryModel:
    """README's memory model on a 45 s take, as growth of the child's own VmHWM beyond its import:
    extract-rhythm --clip none about 5.1 bytes per byte of pose JSON (the decoded document);
    detect-beats the WAV's size (the mapping's pages) plus 8 bytes per frame (the float64 clip).
    MARGIN covers what does not grow with the take, mostly the onset envelope's block buffers
    on two threads (12.6 MB), which at 45 s outweigh the mapping they follow."""

    SECONDS, MARGIN = 45, 8 << 20

    @pytest.mark.parametrize("command", ["extract-rhythm", "detect-beats"])
    def test_peak_growth_within_the_model(self, tmp_path, command):
        rng = np.random.default_rng(45)
        if command == "extract-rhythm":
            path = tmp_path / "take.json"
            frames = random_pose_frames(rng, self.SECONDS * 60, 17, scale=500.0)
            path.write_bytes(serialize_pose_file(PoseSequence(60.0, frames)))
            argv, model = ["--poses", str(path), "--clip", "none"], 5.1 * path.stat().st_size
        else:
            path, n = tmp_path / "song.wav", self.SECONDS * 22050
            wavfile.write(path, 22050, rng.uniform(-0.5, 0.5, (n, 2)).astype(np.float32))
            argv, model = ["--audio", str(path)], path.stat().st_size + 8 * n
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", PEAK_MAIN, command, *argv,
                               "--output", str(tmp_path / "out.json")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.stderr == "", proc.stderr
        code, after_import, after_main = map(int, proc.stdout.split("\n")[-2].split())
        assert code == 0
        assert after_main - after_import <= model + self.MARGIN, (after_main - after_import, model)


class TestGradcheckCommand:
    def test_mlp_regression_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["gradcheck", "--variant", "mlp", "--mode", "regression",
                     "--seed", "0", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"]
        assert doc["max_error"] < 1e-4

    def test_mlp_categorical_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["gradcheck", "--variant", "mlp", "--mode", "categorical",
                     "--seed", "0", "--output", str(out)])
        assert code == 0

    def test_env_seed_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KINEBEAT_SEED", "123")
        assert main(["gradcheck", "--variant", "mlp", "--mode", "regression"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 123

    def test_seed_defaults_to_the_library(self, monkeypatch, capsys):
        monkeypatch.delenv("KINEBEAT_SEED", raising=False)
        assert main(["gradcheck", "--variant", "mlp", "--mode", "regression"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == inspect.signature(gradcheck).parameters["seed"].default


BAD_SEEDS = [
    pytest.param(["--seed", "-1"], None, "--seed must be a nonnegative integer, got -1",
                 id="seed-negative"),
    pytest.param([], "x", "$KINEBEAT_SEED must be a nonnegative integer, got 'x'",
                 id="env-not-an-integer"),
    pytest.param([], "1.5", "$KINEBEAT_SEED must be a nonnegative integer, got '1.5'",
                 id="env-fraction"),
    pytest.param([], "-2", "$KINEBEAT_SEED must be a nonnegative integer, got '-2'",
                 id="env-negative"),
    pytest.param(["--seed", "-1"], "x", "--seed must be a nonnegative integer, got -1",
                 id="flag-checked-before-env"),
]


class TestBadSeeds:
    """A bad seed, epoch count or learning rate exits 2 with one line naming its flag,
    variable or setting, before any file is read."""

    @pytest.mark.parametrize("command, flags, env, message", [
        *[pytest.param(command, *case.values, id=f"{command}-{case.id}")
          for command in ("train-toy", "gradcheck") for case in BAD_SEEDS],
        pytest.param("train-toy", ["--frozen-seed", "-3"], None,
                     "--frozen-seed must be a nonnegative integer, got -3",
                     id="train-toy-frozen-seed-negative"),
        pytest.param("train-toy", ["--epochs", "-1"], None, "epochs must be nonnegative, got -1",
                     id="train-toy-epochs-negative"),
        pytest.param("train-toy", ["--lr", "-1"], None, "learning_rate must be nonnegative, got -1.0",
                     id="train-toy-lr-negative"),
        pytest.param("train-toy", ["--lr", "nan"], None, "learning_rate must be nonnegative, got nan",
                     id="train-toy-lr-nan"),
    ])
    def test_exits_2(self, tmp_path, monkeypatch, capsys, command, flags, env, message):
        if env is None:
            monkeypatch.delenv("KINEBEAT_SEED", raising=False)
        else:
            monkeypatch.setenv("KINEBEAT_SEED", env)
        data = tmp_path / "data"
        write_dataset(data, n=2)
        read = []
        monkeypatch.setattr(cli, "_read_file", lambda path: read.append(path))
        source = ["--data", str(data)] if command == "train-toy" else []
        out = tmp_path / "out.json"
        code = main([command, *source, *flags, "--output", str(out)])
        assert one_error_line(code, *capsys.readouterr()) == f"error: {message}"
        assert read == []
        assert not out.exists()


class TestParser:
    @pytest.mark.parametrize("command", [[], ["extract-rhythm"], ["detect-beats"], ["evaluate"],
                                         ["tempo"], ["train-toy"], ["gradcheck"]])
    def test_help_still_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "-h"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: kinebeat") and captured.err == ""

    @staticmethod
    def options():
        """(command, action) for every option of every subcommand except -h."""
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command in sub.choices.values():
            command._add_arguments()  # evaluate, train-toy and gradcheck add theirs on first parse
        return [(name, action) for name, command in sub.choices.items()
                for action in command._actions if not isinstance(action, argparse._HelpAction)]

    def test_every_command_has_all_its_options(self):
        counts = {}
        for name, _ in self.options():
            counts[name] = counts.get(name, 0) + 1
        assert counts == {"extract-rhythm": 8, "detect-beats": 6, "evaluate": 8, "tempo": 6,
                          "train-toy": 8, "gradcheck": 4}

    def test_every_option_has_help(self):
        missing = [(name, action.option_strings) for name, action in self.options() if not action.help]
        assert missing == []

    def test_no_default_is_a_literal_in_help(self):
        """A default is stated only through %(default)s, so the help cannot drift from it."""
        for name, action in self.options():
            if action.default is None or action.default is False:  # no value to restate
                continue
            assert "%(default)s" in action.help, (name, action.option_strings)
            assert str(action.default) not in action.help, (name, action.option_strings)
