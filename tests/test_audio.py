import io
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from kinebeat.audio import (
    ONSET_BLOCK,
    AudioClip,
    BeatList,
    OnsetEnvelope,
    beats_from_rhythm,
    estimate_tempo,
    onset_envelope,
    pick_beats,
    read_wav,
)
from kinebeat.cli import main
from kinebeat.rhythm import RhythmSequence

from conftest import click_wav_bytes, pick_beats_loop, wav_bytes

SR = 22050


def envelope_of(wav, window=1024, hop=256):
    return onset_envelope(read_wav(wav), window=window, hop=hop)


class TestReadWav:
    def test_silence_pcm16(self):
        clip = read_wav(wav_bytes(np.zeros(SR), SR))
        assert clip.sample_rate == SR
        assert len(clip.samples) == SR
        assert not clip.samples.any()

    def test_full_scale_pcm16_scaling(self):
        buf = io.BytesIO()
        wavfile.write(buf, SR, np.array([32767, 0, -32768], dtype=np.int16))
        clip = read_wav(buf.getvalue())
        assert clip.samples[0] == 32767 / 32768
        assert clip.samples[2] == -1.0

    def test_stereo_averages_to_mono(self):
        buf = io.BytesIO()
        stereo = np.tile(np.array([[0.5, -0.5]], dtype=np.float32), (100, 1))
        wavfile.write(buf, SR, stereo)
        clip = read_wav(buf.getvalue())
        assert not clip.samples.any()

    def test_float32_passthrough(self):
        clip = read_wav(wav_bytes(np.linspace(-1, 1, 64), SR, fmt="float32"))
        assert clip.samples[0] == -1.0

    def test_unsupported_bit_depth(self):
        buf = io.BytesIO()
        wavfile.write(buf, SR, np.zeros(100, dtype=np.int32))
        with pytest.raises(ValueError, match="unsupported WAV sample format"):
            read_wav(buf.getvalue())

    def test_truncated_file(self):
        data = wav_bytes(np.zeros(SR), SR)
        with pytest.raises(ValueError, match="cannot decode"):
            read_wav(data[:30])


def _chunk(chunk_id, body, size=None):
    """One RIFF chunk; odd-sized bodies get their pad byte."""
    size = len(body) if size is None else size
    return chunk_id + struct.pack("<I", size) + body + b"\0" * (len(body) & 1)


def _riff(*chunks, magic=b"RIFF", form=b"WAVE", size=None):
    body = form + b"".join(chunks)
    return magic + struct.pack("<I", len(body) if size is None else size) + body


GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _fmt(tag, channels, bits, subformat=None, guid_tail=GUID_TAIL):
    """A fmt chunk; with subformat, a WAVE_FORMAT_EXTENSIBLE one carrying it."""
    align = channels * bits // 8
    body = struct.pack("<HHIIHH", tag, channels, SR, SR * align, align, bits)
    if subformat is not None:
        body += struct.pack("<HHI", 22, bits, 0) + struct.pack("<I", subformat) + guid_tail
    return _chunk(b"fmt ", body)


def _scipy_wav(array):
    buf = io.BytesIO()
    wavfile.write(buf, SR, array)
    return buf.getvalue()


def _rf64(fmt_chunk, payload, trailer):
    """RF64: the data chunk's own size field is 0xFFFFFFFF; ds64 holds the real one."""
    data = _chunk(b"data", payload, size=0xFFFFFFFF)
    total = 12 + 36 + len(fmt_chunk) + len(data) + len(trailer)
    ds64 = _chunk(b"ds64", struct.pack("<QQQI", total - 8, len(payload), 0, 0))
    return _riff(ds64, fmt_chunk, data, trailer, magic=b"RF64", size=0xFFFFFFFF)


def _rifx(pcm):
    """Big-endian RIFX with 16-bit PCM mono: valid, but outside the accepted subset."""
    payload = pcm.astype(">i2").tobytes()
    body = (b"WAVE" + b"fmt " + struct.pack(">IHHIIHH", 16, 1, 1, SR, 2 * SR, 2, 16)
            + b"data" + struct.pack(">I", len(payload)) + payload)
    return b"RIFX" + struct.pack(">I", len(body)) + body


def _wav_matrix():
    """(accepted, rejected): name -> WAV bytes, built from fixed seeds."""
    rng = np.random.default_rng(11)
    pcm = rng.integers(-32768, 32768, size=(2000, 2)).astype(np.int16)
    flt = rng.uniform(-1.5, 1.5, size=(2000, 2)).astype(np.float32)
    flt[:5, 0] = [np.inf, -np.inf, 1.0, -1.0, -0.0]
    flt[4, 1] = -0.0
    pcm_data, flt_data = _chunk(b"data", pcm.tobytes()), _chunk(b"data", flt.tobytes())
    mono = _scipy_wav(pcm[:, 0].copy())
    stereo = _scipy_wav(pcm)
    accepted = {
        "pcm16-mono": mono,
        "pcm16-stereo": stereo,
        "float32-mono": _scipy_wav(flt[:, 0].copy()),
        "float32-stereo": _scipy_wav(flt),
        "extensible-pcm16-stereo": _riff(_fmt(0xFFFE, 2, 16, subformat=1), pcm_data),
        "extensible-float32-stereo": _riff(_fmt(0xFFFE, 2, 32, subformat=3), flt_data),
        "list-and-junk-chunks": _riff(
            _chunk(b"JUNK", bytes(7)), _fmt(1, 2, 16), _chunk(b"LIST", b"INFOx"), pcm_data
        ),
        "rf64-float32-stereo": _rf64(_fmt(3, 2, 32), flt.tobytes(), _chunk(b"LIST", bytes(8))),
        "data-ends-early": _riff(
            _fmt(1, 2, 16), _chunk(b"data", pcm[:1500].tobytes(), size=pcm.nbytes),
            size=4 + 24 + 8 + pcm.nbytes,
        ),
        "riff-size-past-eof": _riff(_fmt(1, 2, 16), pcm_data, size=0xFFFFFFF0),
    }
    rejected = {
        "pcm8": _scipy_wav((pcm[:, 0] // 256 + 128).astype(np.uint8)),
        "pcm24": _riff(_fmt(1, 2, 24), _chunk(b"data", bytes(6 * 100))),
        "pcm32": _scipy_wav(pcm.astype(np.int32)),
        "float64": _scipy_wav(flt.astype(np.float64)),
        "three-channels": _scipy_wav(rng.integers(-100, 100, size=(200, 3)).astype(np.int16)),
        "extensible-unknown-subformat": _riff(
            _fmt(0xFFFE, 2, 16, subformat=1, guid_tail=bytes(12)), pcm_data
        ),
        "rifx": _rifx(pcm[:, 0]),
        "not-wave": _riff(_fmt(1, 1, 16), pcm_data, form=b"AVI "),
        "not-riff": b"OggS" + bytes(100),
        "no-fmt-before-data": _riff(pcm_data, _fmt(1, 2, 16)),
        "no-data": _riff(_fmt(1, 2, 16), _chunk(b"LIST", b"INFO")),
        "cut-in-riff-header": mono[:10],
        "cut-in-fmt": mono[:30],
        "cut-in-data-header": mono[:40],
        "cut-in-sample": mono[:-1],
        "cut-in-frame": stereo[:-2],
    }
    return accepted, rejected


ACCEPTED_WAVS, REJECTED_WAVS = _wav_matrix()


def reference_read_wav(data):
    """scipy.io.wavfile.read plus the int16/float32 mono conversion read_wav replaced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on chunks it skips and on a short file
        rate, raw = wavfile.read(io.BytesIO(data))
    if raw.dtype == np.int16:
        samples = raw.astype(np.float64) / 32768.0
    elif raw.dtype == np.float32:
        samples = np.clip(raw.astype(np.float64), -1.0, 1.0)
    else:
        raise ValueError(f"unsupported WAV sample format {raw.dtype}")
    if samples.ndim == 2:
        if samples.shape[1] > 2:
            raise ValueError(f"unsupported channel count {samples.shape[1]}")
        samples = samples.mean(axis=1)
    return rate, samples


class TestWavDecoderContract:
    @pytest.mark.parametrize("name", sorted(ACCEPTED_WAVS))
    def test_matches_scipy_bitwise(self, name):
        data = ACCEPTED_WAVS[name]
        rate, expected = reference_read_wav(data)
        clip = read_wav(data)
        assert clip.sample_rate == rate
        assert clip.samples.dtype == np.float64
        assert clip.samples.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", sorted(REJECTED_WAVS))
    def test_rejected_with_one_error_line(self, name, tmp_path, capsys):
        data = REJECTED_WAVS[name]
        with pytest.raises(Exception):  # scipy plus the old checks refused it too
            reference_read_wav(data)
        with pytest.raises(ValueError):
            read_wav(data)
        path = tmp_path / "bad.wav"
        path.write_bytes(data)
        assert main(["detect-beats", "--audio", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_payload_is_decoded_in_place(self):
        # a minute of stereo float32: beyond the float64 mono result, only
        # fixed-size conversion blocks are allocated, never a copy of the payload
        stereo = np.random.default_rng(5).uniform(-1, 1, size=(60 * SR, 2)).astype(np.float32)
        data = _scipy_wav(stereo)
        tracemalloc.start()
        try:
            clip = read_wav(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < clip.samples.nbytes + 4e6


def dense_onset_envelope(x, window, hop):
    """The whole-matrix envelope formula onset_envelope had before it ran in blocks."""
    n_frames = 1 + (len(x) - window) // hop
    idx = hop * np.arange(n_frames)[:, None] + np.arange(window)[None, :]
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
    spectra = np.abs(np.fft.rfft(x[idx] * hann, axis=1))
    logmag = np.log1p(10.0 * spectra)
    flux = np.maximum(0.0, logmag[1:] - logmag[:-1]).sum(axis=1)
    lead = window // (2 * hop)
    return np.concatenate([np.zeros(lead + 1), flux])


class TestBlockedEnvelope:
    @pytest.mark.parametrize("window,hop", [(1024, 256), (1024, 64), (2048, 512), (512, 512)])
    # frame counts past 2 * ONSET_BLOCK; blocks start every ONSET_BLOCK - 1 frames, so
    # k * (ONSET_BLOCK - 1) + 1 frames end on a full block and + 2 on a two-frame one
    @pytest.mark.parametrize("past", [
        1, ONSET_BLOCK, ONSET_BLOCK - 1, ONSET_BLOCK - 2, 0, -1,
        1 - ONSET_BLOCK, -ONSET_BLOCK, 2 - 2 * ONSET_BLOCK,
    ])
    def test_bitwise_equal_to_dense_formula(self, window, hop, past):
        n_frames = 2 * ONSET_BLOCK + past
        rng = np.random.default_rng([window, hop, n_frames])
        x = rng.uniform(-1, 1, window + (n_frames - 1) * hop + hop // 2)
        env = onset_envelope(AudioClip(SR, x), window=window, hop=hop)
        assert env.values.tobytes() == dense_onset_envelope(x, window, hop).tobytes()

    def test_bitwise_equal_on_a_minute_of_audio(self):
        clip = read_wav(click_wav_bytes(123, seconds=60.0))
        rng = np.random.default_rng(60)
        x = clip.samples + rng.uniform(-0.01, 0.01, len(clip.samples))
        env = onset_envelope(AudioClip(SR, x))
        assert env.values.tobytes() == dense_onset_envelope(x, 1024, 256).tobytes()

    def test_memory_does_not_grow_with_length(self):
        def peak_bytes(seconds):
            clip = AudioClip(SR, np.random.default_rng(seconds).uniform(-1, 1, seconds * SR))
            tracemalloc.start()
            try:
                onset_envelope(clip)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak_bytes(30), peak_bytes(240)
        assert abs(long - short) < 1e6
        assert max(short, long) < 30e6


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, kinebeat.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestOnsetEnvelope:
    def test_silence_is_all_zero(self):
        env = envelope_of(wav_bytes(np.zeros(SR), SR))
        assert not env.values.any()
        assert env.frame_rate == SR / 256

    def test_first_frame_flux_is_zero(self):
        env = envelope_of(click_wav_bytes(120))
        assert env.values[0] == 0.0

    def test_stationary_sine_has_negligible_flux(self):
        # A tone with a hop-periodic waveform: after the onset every full
        # window holds identical samples, so there is no spectral increase.
        cycle = 0.8 * np.sin(2 * np.pi * 3.0 * np.arange(256) / 256)
        x = np.concatenate([np.zeros(20 * 256), np.tile(cycle, 160)])
        env = envelope_of(wav_bytes(x, SR, fmt="float32"))
        attack_end = int((20 * 256 / SR + 0.15) * env.frame_rate)
        assert env.values.max() > 1.0  # the onset itself is visible
        assert env.values[attack_end:].max() <= 1e-6 * env.values.max()

    def test_click_train_maxima_within_one_frame(self):
        start, bpm = 0.25, 120
        env = envelope_of(click_wav_bytes(bpm, start=start))
        clicks = np.arange(start, 5.12, 60.0 / bpm)
        for c in clicks:
            frame = int(round(c * env.frame_rate))
            lo, hi = frame - 6, frame + 7
            local_max = lo + int(np.argmax(env.values[lo:hi]))
            assert abs(local_max - frame) <= 1

    def test_too_short_clip(self):
        with pytest.raises(ValueError, match="too short"):
            envelope_of(wav_bytes(np.zeros(100), SR))

    def test_polarity_flip_invariance(self, rng):
        x = rng.uniform(-0.5, 0.5, SR)
        a = envelope_of(wav_bytes(x, SR, fmt="float32"))
        b = envelope_of(wav_bytes(-x, SR, fmt="float32"))
        np.testing.assert_array_equal(a.values, b.values)

    @given(st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
    @example(c=1.0, seed=0)
    @settings(max_examples=20, deadline=None)
    def test_attenuation_never_raises_envelope(self, c, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, SR // 2)
        clip = read_wav(wav_bytes(x, SR, fmt="float32"))
        full = onset_envelope(clip)
        # Scale the decoded samples, not x: the WAV rounds x to float32, so a
        # gain on x would compare two different signals (about 1e-6 apart in
        # flux even at c = 1) instead of one signal at two levels.
        quiet = onset_envelope(AudioClip(SR, np.float32(c) * clip.samples))
        assert (quiet.values <= full.values + 1e-9).all()


class TestPickBeats:
    def test_all_zero_envelope_gives_no_beats(self):
        env = OnsetEnvelope(frame_rate=86.0, values=np.zeros(200))
        assert len(pick_beats(env, delta=0.5)) == 0

    def test_single_spike(self):
        values = np.zeros(300)
        values[150] = 5.0
        env = OnsetEnvelope(frame_rate=100.0, values=values)
        beats = pick_beats(env)
        np.testing.assert_array_equal(beats.times, [1.5])

    def test_click_train_recovered(self):
        start, bpm = 0.25, 120
        env = envelope_of(click_wav_bytes(bpm, start=start))
        beats = pick_beats(env, window=0.3, delta=0.1)
        clicks = np.arange(start, 5.12, 60.0 / bpm)
        assert len(beats) == len(clicks)
        for t in beats.times:
            assert np.abs(clicks - t).min() <= 0.05
        spacing = np.diff(beats.times)
        assert np.abs(spacing - 0.5).max() <= 0.05

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_times_ascending_and_in_range(self, seed):
        rng = np.random.default_rng(seed)
        env = OnsetEnvelope(frame_rate=86.0, values=np.abs(rng.standard_normal(400)))
        beats = pick_beats(env)
        assert (np.diff(beats.times) > 0).all()
        if len(beats):
            assert beats.times[0] >= 0.0
            assert beats.times[-1] <= len(env.values) / env.frame_rate

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_loop(self, data):
        n = data.draw(st.one_of(st.integers(1, 3), st.integers(4, 80)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = np.round(rng.uniform(0, 3, size=n), data.draw(st.integers(0, 1)))  # plateaus
        half = data.draw(st.integers(0, n + 3))  # up to wider than the signal
        window = (2 * half + 0.5) / 86.0  # rounds to exactly `half` frames
        delta = data.draw(st.sampled_from([0.0, 0.1, 0.5, 2.0]))
        beats = pick_beats(OnsetEnvelope(frame_rate=86.0, values=values), window, delta)
        assert beats.times.tobytes() == pick_beats_loop(values, 86.0, window, delta).tobytes()


class TestEstimateTempo:
    def test_120_bpm(self):
        env = envelope_of(click_wav_bytes(120))
        assert abs(estimate_tempo(env).bpm - 120) <= 1.0

    def test_90_bpm(self):
        env = envelope_of(click_wav_bytes(90))
        assert abs(estimate_tempo(env).bpm - 90) <= 1.0

    @pytest.mark.parametrize("period", [0.34, 0.4, 0.5, 0.66, 0.8, 1.0])
    def test_period_recovered_within_one_bpm(self, period):
        env = envelope_of(click_wav_bytes(60.0 / period, seconds=8.0), hop=64)
        assert abs(estimate_tempo(env).bpm - 60.0 / period) <= 1.0

    def test_time_stretch_halves_bpm(self):
        base = envelope_of(click_wav_bytes(120, seconds=8.0))
        slowed = envelope_of(click_wav_bytes(60, seconds=8.0))
        assert abs(estimate_tempo(slowed).bpm * 2 - estimate_tempo(base).bpm * 1) <= 2.0
        assert abs(estimate_tempo(slowed).bpm - 60.0) <= 1.0

    def test_white_noise_is_deterministic_and_in_range(self):
        rng = np.random.default_rng(7)
        values = np.abs(rng.standard_normal(800))
        env = OnsetEnvelope(frame_rate=86.13, values=values)
        a = estimate_tempo(env)
        b = estimate_tempo(OnsetEnvelope(frame_rate=86.13, values=values.copy()))
        assert a.bpm == b.bpm
        assert 60.0 <= a.bpm <= 180.0

    def test_silence_has_no_periodicity(self):
        env = envelope_of(wav_bytes(np.zeros(SR * 2), SR))
        with pytest.raises(ValueError, match="no periodicity"):
            estimate_tempo(env)

    def test_too_short_envelope(self):
        env = OnsetEnvelope(frame_rate=86.13, values=np.abs(np.sin(np.arange(40.0))))
        with pytest.raises(ValueError, match="too short"):
            estimate_tempo(env)

    def test_bad_range(self):
        env = OnsetEnvelope(frame_rate=86.13, values=np.ones(500))
        with pytest.raises(ValueError, match="bpm_min"):
            estimate_tempo(env, bpm_min=120, bpm_max=60)


class TestBeatsFromRhythm:
    def test_empty(self):
        r = RhythmSequence(fps=60.0, bits=np.zeros(10, dtype=int))
        assert len(beats_from_rhythm(r)) == 0

    def test_indices_divided_by_fps(self):
        bits = np.zeros(120, dtype=int)
        bits[[30, 90]] = 1
        beats = beats_from_rhythm(RhythmSequence(fps=60.0, bits=bits))
        np.testing.assert_array_equal(beats.times, [0.5, 1.5])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_length_is_popcount(self, seed):
        rng = np.random.default_rng(seed)
        bits = (rng.random(100) < 0.2).astype(int)
        bits[:2] = 0
        beats = beats_from_rhythm(RhythmSequence(fps=60.0, bits=bits))
        assert len(beats) == bits.sum()


class TestBeatListJson:
    def test_roundtrip(self):
        beats = BeatList(times=np.array([0.5, 1.0, 2.25]))
        again = BeatList.from_json(beats.to_json())
        np.testing.assert_array_equal(again.times, beats.times)

    def test_rejects_descending(self):
        with pytest.raises(ValueError, match="ascending"):
            BeatList(times=np.array([1.0, 0.5]))
