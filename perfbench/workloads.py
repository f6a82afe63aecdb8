"""The three workloads: their generated inputs, their CLI calls, and the output checks.

Each call is one `kinebeat` command as a user types it, run in a fresh
process with the work directory as its current directory. A check returns
None when the output is right and a one-line reason when it is not; a call
that exits non-zero or fails its check counts in failed_ops.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import gen
from kinebeat.inversion import ModelDims, load_checkpoint

ONSET_TOLERANCE_S = 0.05  # acceptance criterion 4
ONSET_RECALL = 0.9  # acceptance criterion 4
ONSET_PRECISION = 0.9  # detected beats that lie on a synthesized onset
# The jittered dancer adds spurious kinematic beats between reversals:
# 1.5-2.1 beats per onset on the measured seeds. A detector that marks
# every frame gives 30 or more.
RHYTHM_BEATS_PER_ONSET_MAX = 3.0
TEMPO_TOLERANCE_BPM = 1.0
# Mean per-clip F1 of song beats against the take's rhythm measured 0.75-0.79
# on these inputs (the spurious kinematic beats cost precision).
ALIGN_F1_MIN = 0.6


@dataclass
class Call:
    command: str  # CLI subcommand
    key: str  # per-command metric key: extract, detect, tempo, evaluate, train, gradcheck
    args: list  # full CLI arguments, paths relative to the work directory
    outputs: list  # files the command writes, relative to the work directory
    check: Callable[[Path, int], Optional[str]]  # (work directory, exit code)


@dataclass
class Workload:
    calls: list
    sizes: dict
    quality: dict = field(default_factory=dict)  # guards filled in by the checks
    probes: list = field(default_factory=list)  # extra traced-only replays


def _exit_ok(rc: int) -> Optional[str]:
    return None if rc == 0 else f"exit code {rc}"


def _recall(found: np.ndarray, truth: np.ndarray) -> float:
    """Share of truth times with a found time within ONSET_TOLERANCE_S."""
    if len(found) == 0:
        return 0.0
    return float((np.abs(found[None, :] - truth[:, None]).min(axis=1) <= ONSET_TOLERANCE_S).mean())


def check_rhythm(path: str, n_frames: int, onsets):
    """One bit per frame, a beat at every reversal, and not too many beats besides."""
    onsets = np.asarray(onsets)

    def check(work, rc):
        from kinebeat.rhythm import RhythmSequence

        if rc:
            return _exit_ok(rc)
        try:
            seq = RhythmSequence.from_json((work / path).read_bytes())
        except (OSError, ValueError) as exc:
            return f"{path}: {exc}"
        if len(seq.bits) != n_frames:
            return f"{path}: {len(seq.bits)} bits for {n_frames} frames"
        beats = seq.beat_times()
        if _recall(beats, onsets) < ONSET_RECALL:
            return f"{path}: beats at {_recall(beats, onsets):.0%} of {len(onsets)} reversals within 50 ms"
        if len(beats) > RHYTHM_BEATS_PER_ONSET_MAX * len(onsets):
            return f"{path}: {len(beats)} beats for {len(onsets)} reversals"
        return None

    return check


def check_beats(path: str, onsets):
    """Recall and precision against the synthesized onsets, both within 50 ms."""
    onsets = np.asarray(onsets)

    def check(work, rc):
        if rc:
            return _exit_ok(rc)
        beats = np.asarray(json.loads((work / path).read_text())["beats_sec"])
        if len(beats) == 0:
            return f"{path}: no beats"
        if _recall(beats, onsets) < ONSET_RECALL:
            return f"{path}: recovered {_recall(beats, onsets):.0%} of {len(onsets)} onsets within 50 ms"
        if _recall(onsets, beats) < ONSET_PRECISION:
            return f"{path}: {_recall(onsets, beats):.0%} of {len(beats)} beats lie within 50 ms of an onset"
        return None

    return check


def check_tempo(path: str, bpm: float, quality: dict):
    def check(work, rc):
        if rc:
            return _exit_ok(rc)
        err = abs(json.loads((work / path).read_text())["bpm"] - bpm)
        quality["tempo_err_bpm"] = err
        if err > TEMPO_TOLERANCE_BPM:
            return f"{path}: tempo off by {err:.3f} BPM"
        return None

    return check


def _f1(bcs: float, bhs: float) -> float:
    return 0.0 if bcs + bhs == 0.0 else 2.0 * bcs * bhs / (bcs + bhs)


def check_evaluate(path: str, n_pairs: int, quality: dict):
    def check(work, rc):
        if rc:
            return _exit_ok(rc)
        doc = json.loads((work / path).read_text())
        clips = doc["clips"]
        if len(clips) != n_pairs:
            return f"{path}: {len(clips)} clips for {n_pairs} pairs"
        for entry in clips:
            r = entry["report"]
            if r["b_a"] > min(r["b_g"], r["b_t"]):
                return f"{path}: b_a {r['b_a']} exceeds min(b_g, b_t)"
            if r["f1"] != _f1(r["bcs"], r["bhs"]):
                return f"{path}: f1 {r['f1']} is not the harmonic mean of bcs and bhs"
            if "phase_align" not in entry:
                return f"{path}: no phase_align entry"
        if n_pairs > 1 and doc.get("summary", {}).get("n_clips") != n_pairs:
            return f"{path}: summary missing or wrong n_clips"
        quality["align_f1"] = sum(e["report"]["f1"] for e in clips) / len(clips)
        if quality["align_f1"] < ALIGN_F1_MIN:
            return f"{path}: mean f1 {quality['align_f1']:.3f} below {ALIGN_F1_MIN}"
        return None

    return check


def check_train(ckpt: str, epochs: int, quality: dict, name: str):
    loss_csv = ckpt[: -len(".json")] + "_loss.csv"

    def check(work, rc):
        if rc:
            return _exit_ok(rc)
        try:
            load_checkpoint((work / ckpt).read_bytes())
        except (OSError, ValueError) as exc:
            return f"{ckpt}: {exc}"
        rows = list(csv.reader(io.StringIO((work / loss_csv).read_text())))[1:]
        if len(rows) != epochs + 1:
            return f"{loss_csv}: {len(rows)} rows for {epochs} epochs"
        first, last = float(rows[0][1]), float(rows[-1][1])
        quality[f"train_loss_ratio.{name}"] = last / first
        if not last < first:
            return f"{loss_csv}: final loss {last} is not below initial {first}"
        return None

    return check


def check_gradcheck(path: str):
    def check(work, rc):
        if rc:
            return _exit_ok(rc)
        if json.loads((work / path).read_text()).get("passed") is not True:
            return f"{path}: gradcheck did not pass"
        return None

    return check


def long_take(work: Path, seed: int, smoke: bool) -> Workload:
    inp = gen.long_take(work, seed, 20.0 if smoke else 180.0)
    frames = inp.sizes["pose"]["frames"]
    w = Workload(calls=[], sizes=inp.sizes)
    w.calls = [
        Call(
            "extract-rhythm", "extract",
            ["extract-rhythm", "--poses", "take.json", "--clip", "none", "--output", "take.rhythm.json"],
            ["take.rhythm.json"],
            check_rhythm("take.rhythm.json", frames, inp.truth["onsets_s"]),
        ),
        Call(
            "detect-beats", "detect",
            ["detect-beats", "--audio", "song.wav", "--output", "song.beats.json"],
            ["song.beats.json"],
            check_beats("song.beats.json", inp.truth["onsets_s"]),
        ),
        Call(
            "tempo", "tempo",
            ["tempo", "--audio", "song.wav", "--output", "song.tempo.json"],
            ["song.tempo.json"],
            check_tempo("song.tempo.json", inp.truth["bpm"], w.quality),
        ),
        Call(
            "evaluate", "evaluate",
            ["evaluate", "--gen", "song.beats.json", "--ref", "take.rhythm.json",
             "--phase-align", "--output", "eval.json"],
            ["eval.json"],
            check_evaluate("eval.json", 1, w.quality),
        ),
    ]
    return w


def clip_batch(work: Path, seed: int, smoke: bool) -> Workload:
    n_pairs = 2 if smoke else 16
    inp = gen.clip_batch(work, seed, n_pairs)
    frames = inp.sizes["pose"]["frames"]
    w = Workload(calls=[], sizes=inp.sizes)
    for i, truth in enumerate(inp.truth["clips"]):
        rhythm_out = f"clip{i:02d}.rhythm_clip000.json"
        w.calls += [
            Call(
                "extract-rhythm", "extract",
                ["extract-rhythm", "--poses", f"clip{i:02d}.json", "--output", f"clip{i:02d}.rhythm.json"],
                [rhythm_out],
                check_rhythm(rhythm_out, frames, truth["onsets_s"]),
            ),
            Call(
                "detect-beats", "detect",
                ["detect-beats", "--audio", f"clip{i:02d}.wav", "--output", f"clip{i:02d}.beats.json"],
                [f"clip{i:02d}.beats.json"],
                check_beats(f"clip{i:02d}.beats.json", truth["onsets_s"]),
            ),
        ]
    gens = [f"clip{i:02d}.beats.json" for i in range(n_pairs)]
    refs = [f"clip{i:02d}.rhythm_clip000.json" for i in range(n_pairs)]
    w.calls.append(
        Call(
            "evaluate", "evaluate",
            ["evaluate", "--gen", *gens, "--ref", *refs, "--phase-align", "--output", "eval.json"],
            ["eval.json"],
            check_evaluate("eval.json", n_pairs, w.quality),
        )
    )
    return w


def inversion(work: Path, seed: int, smoke: bool) -> Workload:
    n_samples = 4 if smoke else 16
    mlp_data = gen.teacher_student(work, seed, "mlp", "regression", n_samples)
    runs = [("mlp", "regression", mlp_data, 20 if smoke else None)]
    if not smoke:
        att_data = gen.teacher_student(work, seed, "attnpos", "categorical", n_samples)
        runs.append(("attnpos", "categorical", att_data, 100))
    w = Workload(
        calls=[],
        sizes={"samples": n_samples, "dims": ModelDims().to_json_dict()},
    )
    for variant, mode, data, epochs in runs:
        ckpt = f"{variant}.ckpt.json"
        args = ["train-toy", "--data", data.name, "--variant", variant, "--mode", mode,
                "--seed", str(seed), "--output", ckpt]
        if epochs is not None:
            args += ["--epochs", str(epochs)]
        w.calls.append(
            Call(
                "train-toy", "train", args,
                [ckpt, f"{variant}.ckpt_loss.csv"],
                check_train(ckpt, 2000 if epochs is None else epochs, w.quality, variant),
            )
        )
    w.calls.append(
        Call(
            "gradcheck", "gradcheck",
            ["gradcheck", "--variant", "mlp", "--mode", "regression", "--seed", str(seed),
             "--output", "gradcheck_mlp.json"],
            ["gradcheck_mlp.json"],
            check_gradcheck("gradcheck_mlp.json"),
        )
    )
    if not smoke:
        # the attnpos gradcheck (about 62 s) does not fit a run; sample its probes instead
        w.probes.append(
            ["probe-loss", "--variant", "attnpos", "--mode", "categorical", "--coords", "100",
             "--seed", str(seed)]
        )
    return w


WORKLOADS = {"long-take": long_take, "clip-batch": clip_batch, "inversion": inversion}
