"""Musical beat and tempo detection from WAV audio.

The detector is the classical deterministic chain: magnitude STFT with a
periodic Hann window, log compression, half-wave-rectified spectral flux as
the onset envelope, windowed peak picking with an adaptive mean threshold,
and autocorrelation tempo estimation. No model weights are involved, so the
whole chain is reproducible from its parameters alone.

Only full analysis windows are taken (no zero padding, so a truncated
signal edge never fabricates spectral increase), and each frame is indexed
by its center: envelope index t corresponds to time t / frame_rate with
frame_rate = sample_rate / hop, window centers falling on multiples of the
hop. A percussive event therefore raises the envelope at the frames whose
centers straddle it, not a window-length earlier.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .pose import finite_array, load_json, number_array, positive_number
from .rhythm import RhythmSequence, peak_half_window, windowed_peaks

DEFAULT_STFT_WINDOW = 1024
DEFAULT_STFT_HOP = 256
DEFAULT_PEAK_WINDOW_SECONDS = 0.3
DEFAULT_PEAK_DELTA = 0.1
DEFAULT_BPM_MIN = 60.0
DEFAULT_BPM_MAX = 180.0
ONSET_BLOCK = 256  # STFT frames per onset_envelope block; blocks overlap by one frame

_DECODE_BLOCK = 1 << 16  # WAV frames converted to float64 at a time
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# (format tag, bits per sample) -> sample dtype: WAVE_FORMAT_PCM 16, WAVE_FORMAT_IEEE_FLOAT 32
_SAMPLE_DTYPES = {(0x0001, 16): np.dtype("<i2"), (0x0003, 32): np.dtype("<f4")}
# the last 12 bytes of a KSDATAFORMAT_SUBTYPE GUID, whose first 4 bytes hold the format tag
_SUBFORMAT_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


@dataclass(frozen=True)
class AudioClip:
    """Mono samples in [-1, 1] at an integer sample rate."""

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self):
        rate = self.sample_rate
        if isinstance(rate, bool) or not (isinstance(rate, (int, np.integer)) and rate > 0):
            raise ValueError(f"sample_rate must be a positive integer, got {rate!r}")
        object.__setattr__(self, "sample_rate", int(rate))
        samples = finite_array(self.samples, "samples", 1)
        object.__setattr__(self, "samples", samples)
        if len(samples) < 1:
            raise ValueError("samples must be a non-empty mono vector")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class OnsetEnvelope:
    """Nonnegative onset-strength curve sampled at frame_rate Hz."""

    frame_rate: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frame_rate", positive_number(self.frame_rate, "frame_rate"))
        values = finite_array(self.values, "envelope values", 1, nonnegative=True)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class BeatList:
    """Strictly ascending beat timestamps in seconds."""

    times: np.ndarray

    def __post_init__(self):
        times = finite_array(self.times, "beat times", 1, nonnegative=True)
        object.__setattr__(self, "times", times)
        if len(times) > 1 and not (np.diff(times) > 0).all():
            raise ValueError("beat times must be strictly ascending")

    def __len__(self) -> int:
        return len(self.times)

    def to_json(self) -> bytes:
        return json.dumps({"beats_sec": self.times.tolist()}).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes) -> "BeatList":
        return cls.from_json_dict(load_json(data, "malformed beats JSON"))

    @classmethod
    def from_json_dict(cls, doc) -> "BeatList":
        """The BeatList of an already parsed beats document."""
        if not isinstance(doc, dict) or not isinstance(doc.get("beats_sec"), list):
            raise ValueError('beats JSON must be an object with a "beats_sec" list')
        return cls(times=number_array(doc["beats_sec"], '"beats_sec"'))


@dataclass(frozen=True)
class TempoEstimate:
    bpm: float

    def __post_init__(self):
        object.__setattr__(self, "bpm", positive_number(self.bpm, "bpm"))

    def to_json(self) -> bytes:
        return json.dumps({"bpm": self.bpm}).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes) -> "TempoEstimate":
        doc = load_json(data, "malformed tempo JSON")
        if not isinstance(doc, dict) or "bpm" not in doc:
            raise ValueError('tempo JSON must be an object with "bpm"')
        return cls(bpm=doc["bpm"])


def read_wav(data: bytes) -> AudioClip:
    """Decode a little-endian RIFF/WAVE file (or RF64) into a mono clip.

    Accepted: 16-bit integer PCM or 32-bit IEEE float, 1-2 channels, as
    WAVE_FORMAT_PCM, WAVE_FORMAT_IEEE_FLOAT or WAVE_FORMAT_EXTENSIBLE with
    one of those subformats. Chunks other than "fmt " are skipped up to the
    first "data" chunk, whose samples are the clip; RF64 takes the data
    size from its "ds64" chunk. A data chunk cut short by the end of the
    file decodes to the whole frames present. Anything else, including
    big-endian RIFX, raises ValueError.

    Stereo is mixed to mono by channel average. 16-bit samples are scaled
    by 1/32768; float samples are clipped into [-1, 1]. The payload is
    viewed in place and converted _DECODE_BLOCK frames at a time.
    """
    if len(data) < 12:
        raise ValueError(f"cannot decode WAV: {len(data)} bytes hold no RIFF header")
    riff, riff_size, form = struct.unpack_from("<4sI4s", data)
    if riff == b"RIFX":
        raise ValueError("unsupported WAV byte order: big-endian RIFX; need RIFF or RF64")
    if riff not in (b"RIFF", b"RF64") or form != b"WAVE":
        raise ValueError(f"cannot decode WAV: not a RIFF/WAVE file ({riff!r} {form!r})")
    pos, end, rf64_data_size = 12, riff_size + 8, None
    if riff == b"RF64":
        if len(data) < 36 or data[12:16] != b"ds64":
            raise ValueError("cannot decode WAV: RF64 file without a ds64 chunk")
        ds64_size, riff_size64, rf64_data_size = struct.unpack_from("<IQQ", data, 16)
        if ds64_size < 16:
            raise ValueError(f"cannot decode WAV: ds64 chunk of {ds64_size} bytes")
        pos, end = 20 + ds64_size, riff_size64 + 8
    layout = None
    while True:
        if pos >= end:
            raise ValueError("cannot decode WAV: no data chunk")
        if pos + 8 > len(data):
            raise ValueError(f"cannot decode WAV: file ends inside a chunk header at byte {pos}")
        chunk, size = struct.unpack_from("<4sI", data, pos)
        pos += 8
        if chunk == b"data":
            break
        if chunk == b"fmt ":
            layout = _wav_layout(data, pos, size)
        pos += size + (size & 1)  # odd-sized chunks carry a pad byte
    if layout is None:
        raise ValueError("cannot decode WAV: data chunk before the fmt chunk")
    sample_rate, channels, dtype = layout
    if rf64_data_size is not None:
        size = rf64_data_size
    present = min(size, len(data) - pos)
    if present % (channels * dtype.itemsize):
        raise ValueError("cannot decode WAV: data chunk ends inside a frame")
    raw = np.frombuffer(data, dtype, count=present // dtype.itemsize, offset=pos).reshape(-1, channels)
    samples = np.empty(len(raw))
    for lo in range(0, len(raw), _DECODE_BLOCK):
        out = samples[lo : lo + _DECODE_BLOCK]
        # mono converts in the output itself; stereo in a block averaged into it
        block = out[:, None] if channels == 1 else np.empty((len(out), 2))
        block[:] = raw[lo : lo + _DECODE_BLOCK]  # to float64
        if dtype.kind == "i":
            block /= 32768.0
        else:
            np.clip(block, -1.0, 1.0, out=block)
        if channels == 2:
            block.mean(axis=1, out=out)
    return AudioClip(sample_rate=sample_rate, samples=samples)


def _wav_layout(data: bytes, pos: int, size: int) -> tuple:
    """(sample rate, channels, sample dtype) from the fmt chunk body at pos."""
    if size < 16:
        raise ValueError(f"cannot decode WAV: fmt chunk of {size} bytes is too short")
    if pos + size > len(data):
        raise ValueError("cannot decode WAV: file ends inside the fmt chunk")
    tag, channels, sample_rate, _, block_align, bits = struct.unpack_from("<HHIIHH", data, pos)
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        # cbSize, valid bits and channel mask come before the SubFormat GUID
        if size < 40 or struct.unpack_from("<H", data, pos + 16)[0] < 22:
            raise ValueError("cannot decode WAV: WAVE_FORMAT_EXTENSIBLE fmt chunk too short")
        if data[pos + 28 : pos + 40] == _SUBFORMAT_GUID_TAIL:
            tag = struct.unpack_from("<I", data, pos + 24)[0]
    dtype = _SAMPLE_DTYPES.get((tag, bits))
    if dtype is None:
        raise ValueError(
            f"unsupported WAV sample format (format tag {tag:#06x}, {bits} bits); "
            "need 16-bit PCM or 32-bit float"
        )
    if not 1 <= channels <= 2:
        raise ValueError(f"unsupported channel count {channels}; need 1 or 2")
    if block_align != channels * dtype.itemsize:
        raise ValueError(f"cannot decode WAV: block align {block_align} for {channels} x {bits} bits")
    return sample_rate, channels, dtype


def onset_envelope(
    clip: AudioClip, window: int = DEFAULT_STFT_WINDOW, hop: int = DEFAULT_STFT_HOP
) -> OnsetEnvelope:
    """Half-wave-rectified spectral flux of the log-compressed magnitude STFT.

    Magnitudes are compressed as log(1 + 10 * |X|); the flux at a frame is
    the sum over frequency of the positive bin-wise increase from the
    previous frame, and the first frame's flux is 0. The flux of the window
    starting at sample l * hop lands at envelope index l + window // (2 *
    hop), its center; the leading indices before the first full window are
    zero.

    Frames are strided views of the samples, transformed in blocks of
    ONSET_BLOCK that overlap by one frame, so the working memory does not
    grow with the clip's length.
    """
    if not (window >= hop >= 1):
        raise ValueError(f"need window >= hop >= 1, got window={window}, hop={hop}")
    x = clip.samples
    n_frames = 1 + (len(x) - window) // hop if len(x) >= window else 0
    if n_frames < 2:
        raise ValueError(f"clip too short: {len(x)} samples hold {n_frames} full window(s)")
    frames = sliding_window_view(x, window)[::hop]
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
    lead = window // (2 * hop)
    values = np.zeros(lead + n_frames)  # frame 0 has no predecessor; its flux stays 0
    logmag = np.empty((ONSET_BLOCK, window // 2 + 1))  # reused: one array per block timed slower
    for start in range(0, n_frames - 1, ONSET_BLOCK - 1):
        n = min(ONSET_BLOCK, n_frames - start)
        np.log1p(10.0 * np.abs(np.fft.rfft(frames[start : start + n] * hann, axis=1)), out=logmag[:n])
        rise = np.maximum(0.0, logmag[1:n] - logmag[: n - 1])
        values[lead + start + 1 : lead + start + n] = rise.sum(axis=1)
    return OnsetEnvelope(frame_rate=clip.sample_rate / hop, values=values)


def pick_beats(
    env: OnsetEnvelope,
    window: float = DEFAULT_PEAK_WINDOW_SECONDS,
    delta: float = DEFAULT_PEAK_DELTA,
) -> BeatList:
    """Pick onset-envelope peaks as musical beats.

    Frame t is a beat iff its value is strictly positive, is >= every value
    within round(window * frame_rate / 2) frames (first-of-plateau on ties),
    and is >= the mean over that same window plus delta times the whole
    signal's standard deviation. Beat time is t / frame_rate.
    """
    half = peak_half_window(window, env.frame_rate)
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta!r}")
    v = env.values
    sigma = float(v.std())
    times = []
    for t in windowed_peaks(v, half, 0.0).tolist():  # the window-mean test, at the survivors only
        if v[t] >= v[max(0, t - half) : t + half + 1].mean() + delta * sigma:
            times.append(t / env.frame_rate)
    return BeatList(times=np.asarray(times, dtype=np.float64))


def estimate_tempo(
    env: OnsetEnvelope, bpm_min: float = DEFAULT_BPM_MIN, bpm_max: float = DEFAULT_BPM_MAX
) -> TempoEstimate:
    """Tempo from the autocorrelation of the mean-removed onset envelope.

    Candidate lags are those whose BPM falls in [bpm_min, bpm_max]; the lag
    with the largest autocorrelation wins, ties going to the longer lag
    (slower tempo). Raises when the envelope is too short for the longest
    candidate lag or shows no periodicity (constant envelope, or no lag
    with positive correlation).
    """
    if not (bpm_min < bpm_max) or bpm_min <= 0:
        raise ValueError(f"need 0 < bpm_min < bpm_max, got {bpm_min}, {bpm_max}")
    fr = env.frame_rate
    longest = 60.0 * fr / bpm_min
    if not math.isfinite(longest):
        raise ValueError(f"the longest lag at {bpm_min} BPM and {fr:.2f} Hz is not finite")
    lag_min = max(1, math.ceil(60.0 * fr / bpm_max))
    lag_max = math.floor(longest)
    if lag_min > lag_max:
        raise ValueError(f"no integer lag lies in [{bpm_min}, {bpm_max}] BPM at {fr:.2f} Hz")
    v = env.values
    if len(v) <= lag_max:
        raise ValueError(f"envelope too short for the longest lag: {len(v)} <= {lag_max}")
    if v.std() == 0.0:
        raise ValueError("no periodicity above threshold: envelope is constant")
    v = v - v.mean()
    best_lag = None
    best_r = -math.inf
    for lag in range(lag_min, lag_max + 1):
        r = float(np.dot(v[:-lag], v[lag:]))
        if r >= best_r:  # >= prefers the longer lag on ties
            best_r = r
            best_lag = lag
    if best_r <= 0.0:
        raise ValueError("no periodicity above threshold: autocorrelation has no positive peak")
    return TempoEstimate(bpm=60.0 * fr / best_lag)


def beats_from_rhythm(r: RhythmSequence) -> BeatList:
    """Convert a kinematic rhythm sequence into beat timestamps."""
    return BeatList(times=r.beat_times())
