"""Traced replay of one kinebeat CLI command, run in a fresh process.

    python3 perfbench/replay.py --spans SPANS.json --pass-id N -- <kinebeat args>

It imports the package, replaces each public function of pose, rhythm,
audio, metrics and inversion (and the CLI's read, write and beat-loading
helpers) with a traced copy wherever a kinebeat module holds it, then runs
`kinebeat.cli.main` on the arguments unchanged. The replay therefore runs
exactly the code the command runs; the benchmark still compares its output
bytes with the untraced command's.

A traced copy puts a span around the call and, where a layer metric needs
it, records counts taken from the call's arguments and result. Spans stay
in memory and are written to SPANS.json when the command ends. After the
command the originals are put back and a memory pass re-runs the rhythm
stages or the onset envelope under tracemalloc, outside the command span,
so allocation peaks never inflate a timed span; its duration is recorded so
the benchmark can take it out of the tracing overhead.

The extra command `probe-loss --variant V --mode M --coords N --seed S`
times gradcheck's loss probes (two per coordinate) on its first N
coordinates, on gradcheck's own inputs, without running the whole check.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """In-memory span list: [name, start_ns, end_ns, parent_id, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._replaced = []  # (owner, attribute, original)
        self.last_args = {}  # span name -> (original, args, kwargs) of its latest call

    def _open(self, name, counts):
        rec = [name, 0, None, self._stack[-1] if self._stack else None, counts]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name, **counts):
        rec = self._open(name, counts)
        try:
            yield counts
        finally:
            self._close(rec)

    def traced(self, fn, name, counts=None, keep_args=False):
        """fn with a span around each call.

        name is a span name, or a function of the call's (args, kwargs) for
        spans named after a model variant. counts, if given, maps (result,
        bound arguments) to the span's counts; it runs after the span closes.
        Per-epoch and per-probe calls go through here, so it skips the
        context-manager machinery to keep the per-call cost small.
        """
        signature = inspect.signature(fn) if counts else None

        def traced(*args, **kwargs):
            rec = self._open(name if isinstance(name, str) else name(args, kwargs), {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4].update(counts(result, bound.arguments))
            if keep_args:
                self.last_args[rec[0]] = (fn, args, kwargs)
            return result

        return traced

    def replace(self, owner, attr, traced):
        """Put traced in place of owner.attr, and of every module global bound to the same object."""
        original = getattr(owner, attr)
        targets = [(owner, attr)]
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("kinebeat"):
                targets += [(module, g) for g, v in vars(module).items() if v is original and module is not owner]
        for target, name in targets:
            self._replaced.append((target, name, original))
            setattr(target, name, traced)

    def restore(self):
        for target, name, original in reversed(self._replaced):
            setattr(target, name, original)
        self._replaced.clear()


REC = Recorder()
# command -> the stage its memory pass re-runs: its last call, with the same arguments
MEMORY_PASS = {"extract-rhythm": "rhythm.extract", "detect-beats": "audio.onset"}


def _variant_name(suffix):
    """Span name from the variant of the first argument (EncoderParams or TrainingConfig)."""
    return lambda args, kwargs: f"inversion.{args[0].variant}.{suffix}"


def _stft_frames(_, a):
    # computed from the length, as onset_envelope frames the signal
    return {"stft_frames": 1 + (len(a["clip"].samples) - a["window"]) // a["hop"]}


def _phase_offsets(_, a):
    # computed from the search grid: every step in [-range, +range]
    return {"offsets": 2 * int(math.floor(a["search_range"] / a["step"] + 1e-9)) + 1}


def install() -> None:
    """Trace the public functions the CLI commands call."""
    from kinebeat import audio, cli, inversion, metrics, pose, rhythm

    plan = [
        (cli, "_read_file", "cli.read", None),
        (cli, "_write_output", "cli.write", None),
        (cli, "_load_beats", "metrics.load", None),
        (pose, "parse_pose_file", "pose.parse",
         lambda r, a: {"frames": r.n_frames, "joints": r.n_joints}),
        (pose, "interpolate_low_confidence", "pose.repair",
         lambda r, a: {"keypoints": int((a["seq"].confidence() < a["threshold"]).sum())}),
        (pose, "segment_clips", "pose.segment", lambda r, a: {"clips": len(r)}),
        (rhythm, "extract_rhythm", "rhythm.extract", None),
        (rhythm, "compute_velocity", "rhythm.velocity", None),
        (rhythm, "direction_discretize", "rhythm.discretize", None),
        # computed from nbytes: the (T-1, J, K) and (T-2, J, K) tensors
        (rhythm, "discrete_acceleration", "rhythm.accel",
         lambda r, a: {"dense_bytes": int(a["dv"].values.nbytes + r.values.nbytes)}),
        (rhythm, "total_acceleration", "rhythm.total", None),
        (rhythm, "detect_kinematic_beats", "rhythm.peaks", lambda r, a: {"beats": int(r.bits.sum())}),
        (rhythm.RhythmSequence, "to_json", "rhythm.to_json", None),
        (audio, "read_wav", "audio.read_wav",
         lambda r, a: {"samples": len(r.samples), "bytes": len(a["data"])}),
        (audio, "onset_envelope", "audio.onset", _stft_frames),
        (audio, "pick_beats", "audio.pick", lambda r, a: {"beats": len(r)}),
        (audio, "estimate_tempo", "audio.tempo", None),
        (audio.BeatList, "to_json", "audio.to_json", None),
        (audio.TempoEstimate, "to_json", "audio.to_json", None),
        (metrics, "match_beats", "metrics.match", None),
        (metrics, "phase_align", "metrics.phase_align", _phase_offsets),
        (metrics, "aggregate_reports", "metrics.aggregate", None),
        (inversion, "train", _variant_name("train"), lambda r, a: {"epochs": a["config"].epochs}),
        (inversion, "batch_loss_and_gradients", _variant_name("loss_grad"), None),
        (inversion, "batch_loss", _variant_name("loss"), None),
        (inversion, "gradcheck", "inversion.gradcheck", None),
        (inversion, "checkpoint_bytes", "inversion.checkpoint", None),
        (inversion, "loss_history_csv", "inversion.loss_csv", None),
    ]
    for owner, attr, name, counts in plan:
        fn = getattr(owner, attr)
        keep = name in MEMORY_PASS.values()
        REC.replace(owner, attr, REC.traced(fn, name, counts, keep_args=keep))


def probe_loss(argv) -> int:
    """gradcheck's +-step loss probes for the first N coordinates of one block."""
    import numpy as np
    from kinebeat import inversion as inv

    p = argparse.ArgumentParser(prog="probe-loss")
    p.add_argument("--variant", required=True)
    p.add_argument("--mode", required=True)
    p.add_argument("--coords", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    dims = inv.ModelDims()
    seed = args.seed
    frozen = inv.build_frozen(dims, args.mode, np.random.default_rng([seed, 0]).integers(2**32))
    params = inv.init_encoder_params(dims, args.variant, np.random.default_rng([seed, 1]).integers(2**32))
    batch = inv.make_random_batch(dims, args.mode, 3, np.random.default_rng([seed, 2]))
    flat = params.blocks()["rhythm.pos_table" if args.variant == "attnpos" else "rhythm.w1"].reshape(-1)
    for i in range(min(args.coords, flat.size)):
        keep = flat[i]
        for sign in (1.0, -1.0):
            flat[i] = keep + sign * inv.GRADCHECK_STEP
            inv.batch_loss(params, frozen, batch, dims)
        flat[i] = keep
    # computed: gradcheck probes every coordinate twice
    REC.spans[0][4]["probes_total"] = 2 * sum(b.size for b in params.blocks().values())
    return 0


def _memory_pass(command):
    """Peak traced allocation of a re-run of the command's heaviest stage, or None."""
    import tracemalloc

    call = REC.last_args.get(MEMORY_PASS.get(command))
    if call is None:
        return None
    fn, args, kwargs = call
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    own = argparse.ArgumentParser(prog="replay")
    own.add_argument("--spans", required=True)
    own.add_argument("--pass-id", type=int, required=True)
    opts = own.parse_args(argv[:split])
    cmd_argv = argv[split + 1 :]

    with REC.span(f"cmd.{cmd_argv[0]}") as root:
        with REC.span("cli.import"):
            with REC.span("cli.import_numpy"):
                import numpy  # noqa: F401
            with REC.span("cli.import_scipy_io"):
                import scipy.io  # noqa: F401
            import kinebeat.cli as cli
        with REC.span("trace.install"):
            install()
        if cmd_argv[0] == "probe-loss":
            root["exit"] = probe_loss(cmd_argv[1:])
        else:
            root["exit"] = cli.main(cmd_argv)
    REC.restore()

    mem_start = time.perf_counter_ns()
    alloc_peak = _memory_pass(cmd_argv[0])
    mem_ns = time.perf_counter_ns() - mem_start
    doc = {
        "pass_id": opts.pass_id,
        "command": cmd_argv[0],
        "spans": REC.spans,
        "alloc_peak_bytes": alloc_peak,
        "memory_pass_ns": mem_ns,
    }
    Path(opts.spans).write_text(json.dumps(doc))
    sys.stdout.flush()
    return REC.spans[0][4]["exit"]


if __name__ == "__main__":
    sys.exit(main())
