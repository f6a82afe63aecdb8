import argparse
import inspect
import json

import numpy as np
import pytest

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
from kinebeat.pose import PoseSequence, serialize_pose_file
from kinebeat.rhythm import RhythmSequence

from conftest import (
    click_wav_bytes,
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
        assert main(["extract-rhythm", "--poses", "/nonexistent.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["extract-rhythm", "--poses", "x.json", "--bogus"])
        assert exc.value.code == 2


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
        assert main(["detect-beats", "--audio", str(bad)]) == 2


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
            assert main(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "--format json" in captured.err

    def test_lone_tempo_flag_refused_before_reading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        for flag in ("--tempo-gen", "--tempo-ref"):
            args = ["evaluate", "--gen", missing, "--ref", missing, flag, missing]
            assert main(args) == 2
            err = capsys.readouterr().err
            assert err == "error: --tempo-gen and --tempo-ref must be given together\n"

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

    def test_unparseable_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["evaluate", "--gen", str(bad), "--ref", str(bad)]) == 2


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
        assert main(["tempo", "--audio", str(wav)]) == 2
        assert "no periodicity" in capsys.readouterr().err


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

    def test_empty_dir_exits_2(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        assert main(["train-toy", "--data", str(data)]) == 2

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
        assert main(["train-toy", "--data", str(data), "--epochs", "1", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert "s.json" in err

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
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sample001.json" in err and '"rhythm.fps"' in err

    @pytest.mark.parametrize("target", [[], [1.7]])
    def test_bad_token_ids_exit_2(self, tmp_path, capsys, target):
        data = tmp_path / "data"
        data.mkdir()
        genre = [1] + [0] * (ModelDims().n_genres - 1)
        doc = {"rhythm": {"fps": 60, "bits": [0, 1, 0]}, "genre": genre, "target": target}
        (data / "s.json").write_text(json.dumps(doc))
        args = ["train-toy", "--data", str(data), "--mode", "categorical", "--epochs", "1",
                "--output", str(tmp_path / "ckpt.json")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "token ids" in err and "Traceback" not in err
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
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sample000.json" in err and "finite" in err and "Traceback" not in err

    def test_divergent_lr_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        write_dataset(data, n=4)
        args = ["train-toy", "--data", str(data), "--lr", "1e6", "--epochs", "50",
                "--output", str(tmp_path / "ckpt.json")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at epoch") and err.count("\n") == 1
        assert not (tmp_path / "ckpt.json").exists()


class TestDeeplyNestedJson:
    """100 000 nested arrays exceed the JSON parser's recursion limit."""

    NESTED = "[" * 100_000

    def _assert_one_error_line(self, capsys, args):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_train_toy(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "s.json").write_text(self.NESTED)
        self._assert_one_error_line(
            capsys, ["train-toy", "--data", str(data), "--output", str(tmp_path / "c.json")]
        )

    def test_extract_rhythm(self, tmp_path, capsys):
        poses = tmp_path / "poses.json"
        poses.write_text(self.NESTED)
        self._assert_one_error_line(capsys, ["extract-rhythm", "--poses", str(poses),
                                             "--output", str(tmp_path / "r.json")])

    def test_evaluate_beats(self, tmp_path, capsys):
        bad = tmp_path / "beats.json"
        bad.write_text(self.NESTED)
        self._assert_one_error_line(capsys, ["evaluate", "--gen", str(bad), "--ref", str(bad)])

    def test_evaluate_tempo(self, tmp_path, capsys):
        beats = tmp_path / "beats.json"
        beats.write_bytes(BeatList(times=np.array([0.5, 1.0])).to_json())
        bad = tmp_path / "tempo_gen.json"
        bad.write_text(self.NESTED)
        ref = tmp_path / "tempo_ref.json"
        ref.write_text('{"bpm": 120.0}')
        self._assert_one_error_line(capsys, ["evaluate", "--gen", str(beats), "--ref", str(beats),
                                             "--tempo-gen", str(bad), "--tempo-ref", str(ref)])


class TestPeakWindowFlags:
    """extract-rhythm --window and detect-beats --peak-window go through one check."""

    @pytest.mark.parametrize("command, flag, input_flag", [
        ("extract-rhythm", "--window", "--poses"),
        ("detect-beats", "--peak-window", "--audio"),
    ])
    def test_infinite_window_exits_2(self, tmp_path, capsys, command, flag, input_flag):
        poses = tmp_path / "osc.json"
        poses.write_bytes(serialize_pose_file(triangle_pose(n_frames=320, half_period=30)))
        wav = tmp_path / "clicks.wav"
        wav.write_bytes(click_wav_bytes(120, seconds=2.0))
        path = poses if input_flag == "--poses" else wav
        args = [command, input_flag, str(path), flag, "inf", "--output", str(tmp_path / "out.json")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: window must be positive and finite") and err.count("\n") == 1

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
    @pytest.mark.parametrize("kind, text", [
        pytest.param("poses", '{"fps": 60, "frames": [[[%s, 0, 1]], [[0, 0, 1]], [[0, 0, 1]]]}' % HUGE,
                     id="pose-coordinate-huge"),
        pytest.param("poses", '{"fps": %s, "frames": [[[0, 0, 1]], [[1, 0, 1]], [[0, 0, 1]]]}' % HUGE,
                     id="pose-fps-huge"),
        pytest.param("beats", '{"beats_sec": [0.5, %s]}' % HUGE, id="beats-huge"),
        pytest.param("beats", '{"beats_sec": {"a": 1}}', id="beats-object"),
        pytest.param("beats", '{"fps": %s, "bits": [0, 0, 1]}' % HUGE, id="rhythm-fps-huge"),
        pytest.param("beats", '{"fps": true, "bits": [0, 0, 1]}', id="rhythm-fps-bool"),
        pytest.param("beats", '{"fps": 60, "bits": [false, false, true, false, true]}',
                     id="rhythm-bits-bool"),
        pytest.param("tempo", '{"bpm": %s}' % HUGE, id="bpm-huge"),
        pytest.param("tempo", '{"bpm": [1]}', id="bpm-list"),
        pytest.param("tempo", '{"bpm": null}', id="bpm-null"),
        pytest.param("tempo", '{"bpm": "120"}', id="bpm-string"),
        pytest.param("poses", '{"fps": 1, "frames": [[[1e200, 0, 1]]%s]}' % (", [[0, 0, 1]]" * 4),
                     id="pose-speed-overflow"),
        pytest.param("poses", '{"fps": 1, "frames": [[[1e308, 0, 1]], [[-1e308, 0, 1]]%s]}'
                     % (", [[0, 0, 1]]" * 3), id="pose-velocity-overflow"),
        pytest.param("beats", '{"fps": 1e-320, "bits": [0, 0, 1]}', id="rhythm-beat-time-overflow"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exits_2(self, tmp_path, capsys, kind, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        beats = tmp_path / "beats.json"
        beats.write_bytes(BeatList(times=np.array([0.5, 1.0])).to_json())
        tempo = tmp_path / "tempo.json"
        tempo.write_text('{"bpm": 120.0}')
        args = {
            "poses": ["extract-rhythm", "--poses", str(bad), "--output", str(tmp_path / "r.json")],
            "beats": ["evaluate", "--gen", str(bad), "--ref", str(beats)],
            "tempo": ["evaluate", "--gen", str(beats), "--ref", str(beats),
                      "--tempo-gen", str(bad), "--tempo-ref", str(tempo)],
        }[kind]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestBadNumericFlags:
    """A NaN threshold or a value whose frame count overflows exits 2, not 0 or a traceback."""

    @pytest.mark.parametrize("command, flags, message", [
        pytest.param("extract-rhythm", ["--min-value", "nan"], "thresholds must be nonnegative",
                     id="min-value-nan"),
        pytest.param("extract-rhythm", ["--min-rel", "nan"], "thresholds must be nonnegative",
                     id="min-rel-nan"),
        pytest.param("detect-beats", ["--delta", "nan"], "delta must be nonnegative", id="delta-nan"),
        pytest.param("extract-rhythm", ["--clip", "1e308"], "not a finite frame count",
                     id="clip-frames-overflow"),
        pytest.param("tempo", ["--bpm-min", "1e-320"], "longest lag", id="bpm-min-lag-overflow"),
        pytest.param("extract-rhythm", ["--bins", "1" + "0" * 20], "direction bins must fit in int64",
                     id="bins-overflow"),
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
        assert main([command, *source, *flags, "--output", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err
        assert not list(tmp_path.glob("out*.json"))


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
    """A bad seed exits 2 with one line naming its flag or variable, before any file is read."""

    @pytest.mark.parametrize("command, flags, env, message", [
        *[pytest.param(command, *case.values, id=f"{command}-{case.id}")
          for command in ("train-toy", "gradcheck") for case in BAD_SEEDS],
        pytest.param("train-toy", ["--frozen-seed", "-3"], None,
                     "--frozen-seed must be a nonnegative integer, got -3",
                     id="train-toy-frozen-seed-negative"),
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
        assert main([command, *source, *flags, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert read == []
        assert not out.exists()


class TestParser:
    @staticmethod
    def options():
        """(command, action) for every option of every subcommand except -h."""
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return [(name, action) for name, command in sub.choices.items()
                for action in command._actions if not isinstance(action, argparse._HelpAction)]

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
