"""Command-line surface for the toolkit.

One binary, six subcommands: extract-rhythm, detect-beats, evaluate, tempo,
train-toy, gradcheck. Exit codes: 0 success, 1 check failure (gradcheck),
2 input or usage error or out of memory: one "error:" line, naming the file that failed
to parse, or whose data failed, or the command that ran out of memory.
Output is JSON by default; evaluate can also emit CSV rows per clip and a summary.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import io
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import audio, pose, rhythm  # the front end; metrics and inversion load in their commands

ENV_SEED = "KINEBEAT_SEED"
_exit_hook_registered = False  # main registers gc.freeze with atexit once per process


def _seed(value, name: str) -> int:
    """A seed must be a nonnegative integer; the error names where it came from."""
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return seed


def _fallback_seed(args, default: int) -> int:
    """--seed, else $KINEBEAT_SEED, else default, the command's library seed."""
    if args.seed is not None:
        return _seed(args.seed, "--seed")
    env = os.environ.get(ENV_SEED)
    return _seed(env, f"${ENV_SEED}") if env is not None else default


def _read_file(path: str):
    """A read-only mmap of a regular, non-empty file, else the bytes read (mmap refuses an
    empty file, and a FIFO or /dev/stdin cannot be mapped). Every parser takes either form."""
    import mmap

    with open(path, "rb") as file:
        info = os.fstat(file.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size > 0:
            return mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        return file.read()


def _write_output(payload: str, output) -> None:
    if output is None:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(output).write_text(payload, encoding="utf-8")


@contextlib.contextmanager
def _naming(path):
    """An OSError in the block becomes "cannot read path"; a ValueError or MemoryError there names path."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except MemoryError:
        raise ValueError(f"{path}: out of memory") from None


def _parse_file(path, parse):
    """parse(the contents of path, from _read_file), under _naming(path)."""
    with _naming(path):
        return parse(_read_file(path))


def _parse_beats(data: bytes) -> audio.BeatList:
    """Accept either a beats JSON or a rhythm JSON (converted to beat times)."""
    doc = pose.load_json(data, "malformed JSON")
    if isinstance(doc, dict) and "beats_sec" in doc:
        return audio.BeatList.from_json_dict(doc)
    if isinstance(doc, dict) and "bits" in doc:
        return audio.beats_from_rhythm(rhythm.RhythmSequence.from_json_dict(doc))
    raise ValueError('expected "beats_sec" or a rhythm file with "bits"')


def _load_beats(path: str) -> audio.BeatList:  # the benchmark replay traces it by name
    return _parse_file(path, _parse_beats)


def _cmd_extract_rhythm(args) -> int:
    config = rhythm.RhythmConfig(
        bins=args.bins,
        window=args.window,
        min_value=args.min_value,
        min_rel=args.min_rel,
        confidence_threshold=args.conf_threshold,
    )
    try:
        seconds = None if args.clip.lower() == "none" else float(args.clip)
    except ValueError:
        raise ValueError(f'--clip must be a number of seconds or "none", got {args.clip!r}') from None
    spec = None if seconds is None else pose.ClipSpec(duration=seconds)
    base = Path(args.output) if args.output else Path(Path(args.poses).stem + ".rhythm.json")
    with _naming(args.poses):
        seq = pose.parse_pose_file(_read_file(args.poses))
        if spec is None:
            docs = {base: rhythm.extract_rhythm(seq, config).to_json()}
        else:
            clips = pose.segment_clips(seq, spec)
            if not clips:
                raise ValueError(f"input of {seq.n_frames} frames is shorter than one {args.clip} s clip")
            docs = {}
            for i, clip in enumerate(clips):  # all clips first, so a failing one leaves no file
                try:
                    doc = rhythm.extract_rhythm(clip, config).to_json()
                except ValueError as exc:
                    first, last = i * clip.n_frames, (i + 1) * clip.n_frames - 1
                    raise ValueError(f"{exc} (clip {i}, frames {first}-{last})") from exc
                docs[base.with_name(f"{base.stem}_clip{i:03d}{base.suffix}")] = doc
    for path, doc in docs.items():
        path.write_bytes(doc)
        print(path)
    return 0


def _cmd_detect_beats(args) -> int:
    audio.check_stft(args.stft_window, args.stft_hop)
    rhythm.peak_half_window(args.peak_window)  # at its default rate: positive and finite
    audio.check_delta(args.delta)
    with _naming(args.audio):
        clip = audio.read_wav(_read_file(args.audio))
        env = audio.onset_envelope(clip, window=args.stft_window, hop=args.stft_hop)
        beats = audio.pick_beats(env, window=args.peak_window, delta=args.delta)
    _write_output(beats.to_json().decode("utf-8"), args.output)
    return 0


def _cmd_tempo(args) -> int:
    audio.check_stft(args.stft_window, args.stft_hop)
    audio.check_bpm_range(args.bpm_min, args.bpm_max)
    with _naming(args.audio):
        clip = audio.read_wav(_read_file(args.audio))
        env = audio.onset_envelope(clip, window=args.stft_window, hop=args.stft_hop)
        estimate = audio.estimate_tempo(env, bpm_min=args.bpm_min, bpm_max=args.bpm_max)
    _write_output(estimate.to_json().decode("utf-8"), args.output)
    return 0


def _evaluate_csv(names, reports, summary) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["clip", "b_g", "b_t", "b_a", "bcs", "bhs", "f1", "degenerate"])
    for name, rep in zip(names, reports):
        writer.writerow(
            [name, rep.b_g, rep.b_t, rep.b_a, rep.bcs, rep.bhs, rep.f1, rep.degenerate]
        )
    writer.writerow(
        [
            "summary",
            summary.b_g,
            summary.b_t,
            summary.b_a,
            summary.mean_bcs,
            summary.mean_bhs,
            summary.mean_f1,
            "",
        ]
    )
    return buf.getvalue()


def _cmd_evaluate(args) -> int:
    from . import metrics

    if args.format == "csv" and (args.phase_align or args.tempo_gen or args.tempo_ref):
        raise ValueError("--phase-align, --tempo-gen and --tempo-ref need --format json")
    if bool(args.tempo_gen) != bool(args.tempo_ref):
        raise ValueError("--tempo-gen and --tempo-ref must be given together")
    metrics.check_tolerance(args.tolerance)
    gen_paths = sorted(args.gen)
    ref_paths = sorted(args.ref)
    if len(gen_paths) != len(ref_paths):
        raise ValueError(
            f"got {len(gen_paths)} generated and {len(ref_paths)} reference files; need pairs"
        )
    reports = []
    extras = []
    for g_path, r_path in zip(gen_paths, ref_paths):
        gen = _load_beats(g_path)
        ref = _load_beats(r_path)
        report = metrics.match_beats(gen, ref, tolerance=args.tolerance)
        entry = {"gen": g_path, "ref": r_path, "report": report.to_json_dict()}
        if args.phase_align:
            entry["phase_align"] = metrics.phase_align(
                gen, ref, tolerance=args.tolerance
            ).to_json_dict()
        reports.append(report)
        extras.append(entry)
    if args.format == "csv":
        summary = metrics.aggregate_reports(reports)
        _write_output(_evaluate_csv(gen_paths, reports, summary), args.output)
        return 0
    doc = {"clips": extras}
    if len(reports) > 1:
        doc["summary"] = metrics.aggregate_reports(reports).to_json_dict()
    if args.tempo_gen:
        t_gen = _parse_file(args.tempo_gen, audio.TempoEstimate.from_json)
        t_ref = _parse_file(args.tempo_ref, audio.TempoEstimate.from_json)
        doc["tempo_difference_bpm"] = metrics.tempo_difference(t_gen, t_ref)
    _write_output(json.dumps(doc, indent=2), args.output)
    return 0


def _cmd_train_toy(args) -> int:
    from . import inversion

    seed = _fallback_seed(args, inversion.TrainingConfig().seed)
    frozen_seed = _seed(args.frozen_seed, "--frozen-seed")
    config = inversion.TrainingConfig(variant=args.variant, mode=args.mode, learning_rate=args.lr,
                                      epochs=args.epochs, seed=seed, frozen_seed=frozen_seed)
    data_dir = Path(args.data)
    files = sorted(data_dir.glob("*.json"))
    if not files:
        raise ValueError(f"no *.json samples found in {data_dir}")

    def parse_sample(data: bytes) -> inversion.Sample:
        sample = inversion.sample_from_json_dict(pose.load_json(data, "malformed JSON"))
        inversion.prepare_batch([sample], inversion.ModelDims(), args.mode)
        return sample

    dataset = [_parse_file(str(path), parse_sample) for path in files]
    result = inversion.train(config, dataset)
    out = Path(args.output) if args.output else Path("checkpoint.json")
    out.write_bytes(inversion.checkpoint_bytes(result))
    loss_path = out.with_name(out.stem + "_loss.csv")
    loss_path.write_text(inversion.loss_history_csv(result.loss_history), encoding="utf-8")
    print(out)
    print(loss_path)
    return 0


def _cmd_gradcheck(args) -> int:
    from . import inversion

    seed = _fallback_seed(args, inversion.GRADCHECK_SEED)
    report = inversion.gradcheck(args.variant, args.mode, seed=seed)
    _write_output(json.dumps(report.to_json_dict(), indent=2), args.output)
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    """arguments(parser), if given, adds the options on the first parse (-h is parsed too),
    so a command whose defaults come from metrics or inversion loads it only when used."""

    def __init__(self, *args, arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._arguments = arguments

    def _add_arguments(self):
        arguments, self._arguments = self._arguments, None
        if arguments is not None:
            arguments(self)

    def parse_known_args(self, args=None, namespace=None):
        self._add_arguments()
        return super().parse_known_args(args, namespace)

    def error(self, message):  # a usage error ends as bad input does: main's one error line
        raise ValueError(message)


def _evaluate_arguments(p) -> None:
    from . import metrics

    p.add_argument("--gen", required=True, nargs="+", help="generated beats/rhythm JSON file(s)")
    p.add_argument("--ref", required=True, nargs="+", help="reference beats/rhythm JSON file(s)")
    p.add_argument("--tolerance", type=float, default=metrics.DEFAULT_TOLERANCE_SECONDS,
                   help="alignment tolerance in seconds (default %(default)s)")
    p.add_argument("--phase-align", action="store_true",
                   help="also search a global offset maximizing F1")
    p.add_argument("--tempo-gen", help="tempo JSON for the generated side")
    p.add_argument("--tempo-ref", help="tempo JSON for the reference side")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv: per-clip and summary rows, no offsets or tempo (default %(default)s)")
    p.add_argument("--output", help="output path (default: stdout)")


def _model_arguments(p):
    """The options train-toy and gradcheck share; returns inversion's TrainingConfig()."""
    from . import inversion

    tc = inversion.TrainingConfig()
    p.add_argument("--variant", choices=inversion.VARIANTS, default=tc.variant,
                   help="rhythm projector (default %(default)s)")
    p.add_argument("--mode", choices=inversion.MODES, default=tc.mode,
                   help="toy generator objective (default %(default)s)")
    p.add_argument("--seed", type=int, help=f"RNG seed (default: ${ENV_SEED}, else "
                   f"{tc.seed} for train-toy and {inversion.GRADCHECK_SEED} for gradcheck)")
    return tc


def _train_toy_arguments(p) -> None:
    tc = _model_arguments(p)
    p.add_argument("--data", required=True, help="directory of *.json training samples")
    p.add_argument("--lr", type=float, default=tc.learning_rate,
                   help="gradient-descent learning rate (default %(default)s)")
    p.add_argument("--epochs", type=int, default=tc.epochs,
                   help="full-batch gradient steps (default %(default)s)")
    p.add_argument("--frozen-seed", type=int, default=tc.frozen_seed,
                   help="seed of the frozen table/generator (default %(default)s)")
    p.add_argument("--output", help="checkpoint path (default: checkpoint.json)")


def _gradcheck_arguments(p) -> None:
    _model_arguments(p)
    p.add_argument("--output", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kinebeat",
        description="Kinematic rhythm extraction, musical beat detection, and alignment metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rc = rhythm.RhythmConfig()

    wav = argparse.ArgumentParser(add_help=False)
    wav.add_argument("--audio", required=True, help="WAV file (PCM16 or float32, 1-2 channels)")
    wav.add_argument("--stft-window", type=int, default=audio.DEFAULT_STFT_WINDOW,
                     help="STFT window in samples (default %(default)s)")
    wav.add_argument("--stft-hop", type=int, default=audio.DEFAULT_STFT_HOP,
                     help="STFT hop in samples (default %(default)s)")

    p = sub.add_parser("extract-rhythm", help="pose JSON -> kinematic rhythm JSON file(s)")
    p.add_argument("--poses", required=True, help="keypoint JSON file")
    p.add_argument("--bins", type=int, default=rc.bins, help="direction bins (default %(default)s)")
    p.add_argument("--window", type=float, default=rc.window,
                   help="local-maximum window in seconds (default %(default)s)")
    p.add_argument("--min-value", type=float, default=rc.min_value,
                   help="absolute acceleration floor for beats (default %(default)s)")
    p.add_argument("--min-rel", type=float, default=rc.min_rel,
                   help="beat floor relative to the acceleration maximum (default %(default)s)")
    p.add_argument("--conf-threshold", type=float, default=rc.confidence_threshold,
                   help="keypoint confidence repair threshold, 0 disables (default %(default)s)")
    p.add_argument("--clip", default=str(pose.DEFAULT_CLIP_SECONDS),
                   help='clip duration (s), or "none" for the whole sequence (default %(default)s)')
    p.add_argument("--output", help="output path; clips get a _clipNNN suffix")
    p.set_defaults(func=_cmd_extract_rhythm)

    p = sub.add_parser("detect-beats", parents=[wav], help="WAV -> musical beats JSON")
    p.add_argument("--peak-window", type=float, default=audio.DEFAULT_PEAK_WINDOW_SECONDS,
                   help="peak-picking window in seconds (default %(default)s)")
    p.add_argument("--delta", type=float, default=audio.DEFAULT_PEAK_DELTA,
                   help="adaptive threshold in envelope standard deviations (default %(default)s)")
    p.add_argument("--output", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_detect_beats)

    p = sub.add_parser("evaluate", help="score generated vs reference beat files",
                       arguments=_evaluate_arguments)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("tempo", parents=[wav], help="WAV -> tempo JSON")
    p.add_argument("--bpm-min", type=float, default=audio.DEFAULT_BPM_MIN,
                   help="slowest candidate tempo in BPM (default %(default)s)")
    p.add_argument("--bpm-max", type=float, default=audio.DEFAULT_BPM_MAX,
                   help="fastest candidate tempo in BPM (default %(default)s)")
    p.add_argument("--output", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_tempo)

    p = sub.add_parser("train-toy", help="train the toy inversion encoders",
                       arguments=_train_toy_arguments)
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("gradcheck", help="verify encoder gradients by finite differences",
                       arguments=_gradcheck_arguments)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    global _exit_hook_registered
    if not _exit_hook_registered:  # frozen at exit, the heap is left out of the last collections
        atexit.register(gc.freeze)
        _exit_hook_registered = True
    command = "kinebeat"
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        with np.errstate(all="ignore"):  # the data types refuse a non-finite result themselves
            return args.func(args)
    except (ValueError, OSError) as exc:
        message = exc
    except MemoryError:  # outside any one file's parse and processing
        message = f"out of memory in {command}"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
